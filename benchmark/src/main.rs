//! `bench` — the txview benchmark.
//!
//! ```text
//! bench run [--workload <name>] [--seed n] [--seconds s] [--trace 0|1]
//!           [--smoke] [--strict] [--out dir]
//! bench probes
//! bench compare <dirA> <dirB>
//! bench repeat <n> [--seed n] [--seconds s] [--out dir]
//! bench manifest
//! ```
//!
//! `run --workload w` measures one workload in this process. It prints and
//! files the metrics `spec.rs` assigns to that workload, and prints, as its
//! last line, one JSON object `{correct, attempted, failed, metrics}` with
//! every end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`), as the driver's contract requires. Without `--workload`,
//! `run` runs every workload, untraced then traced, each in its own child
//! process. See `README.md`.

mod compare;
mod host;
mod json;
mod pace;
mod probes;
mod spec;
mod stats;
mod trace;
mod workloads;

use json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use workloads::{Ctx, Outcome};

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    smoke: bool,
    strict: bool,
    out: PathBuf,
}

/// `--flag value` pairs and bare `--switch`es after the positional words.
fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut r = RunArgs {
        workload: None,
        seed: 42,
        seconds: spec::RUN_SECONDS,
        traced: false,
        smoke: false,
        strict: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => r.workload = Some(value()?.clone()),
            "--seed" => r.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                r.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&r.seconds) {
                    return Err("--seconds must be 1 to 60".into());
                }
            }
            "--trace" => {
                r.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            "--out" => r.out = PathBuf::from(value()?),
            "--smoke" => r.smoke = true,
            "--strict" => r.strict = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(r)
}

/// What a run reports, checked against the declaration.
struct Reported {
    /// The metrics `spec.rs` assigns to the workload: printed and filed.
    assigned: BTreeMap<&'static str, f64>,
    /// Every metric of the mode that ran, as the driver's result line must
    /// carry them. An end-to-end metric the workload is not assigned has
    /// the value measured on its quiet database; a per-layer one has 0.
    line: BTreeMap<&'static str, f64>,
}

/// An assigned metric that was not measured fails the gate, as does a name
/// the benchmark does not declare.
fn reported(out: &mut Outcome, workload: &str, traced: bool) -> Reported {
    for name in out.metrics.keys() {
        if spec::unit_of(name).is_none() {
            out.gate_errors
                .push(format!("metric {name} is not declared in spec.rs"));
        }
    }
    let declared: Vec<(&'static str, &[&str])> = if traced {
        spec::PER_LAYER.iter().map(|m| (m.name, m.on)).collect()
    } else {
        spec::END_TO_END.iter().map(|m| (m.name, m.on)).collect()
    };
    let mut r = Reported {
        assigned: BTreeMap::new(),
        line: BTreeMap::new(),
    };
    for (name, on) in declared {
        let own = on.contains(&workload);
        match out.metrics.get(name) {
            Some(&v) => {
                r.line.insert(name, if own || !traced { v } else { 0.0 });
                if own {
                    r.assigned.insert(name, v);
                }
            }
            None if own || !traced => out
                .gate_errors
                .push(format!("metric {name} was not measured")),
            None => {
                r.line.insert(name, 0.0);
            }
        }
    }
    r
}

fn run_one(args: &RunArgs, name: &str) -> Result<bool, String> {
    let entry = workloads::ALL
        .iter()
        .find(|e| e.name == name)
        .ok_or_else(|| {
            format!(
                "unknown workload {name}; one of: {}",
                spec::WORKLOADS.map(|w| w.name).join(", ")
            )
        })?;
    let epoch = Instant::now();
    let (warmup, window) = if args.smoke {
        (entry.warmup / 6, Duration::from_secs(1))
    } else {
        (entry.warmup, Duration::from_secs(args.seconds))
    };
    let ctx = Ctx {
        seed: args.seed,
        warmup,
        window,
        traced: args.traced,
        smoke: args.smoke,
        epoch,
    };
    let host = host::host_block(args.seed);
    let stolen_before = host::stolen_s();
    let mut out = (entry.run)(&ctx).map_err(|e| format!("{name}: {e}"))?;
    let stolen_s = stolen_before
        .zip(host::stolen_s())
        .map_or(-1.0, |(before, after)| after - before);
    if args.traced {
        // Probes run after the workload, alone in the process.
        let probed = probes::run(Some(name), args.smoke).map_err(|e| format!("probes: {e}"))?;
        if let (Some(unloaded), Some(session)) = (
            out.unloaded_commit_p50_us,
            probed.get("server.session.deposit_us"),
        ) {
            out.set("server.tcp_overhead_us", unloaded - session);
        }
        out.metrics.extend(probed);
    }
    let Reported { assigned, line } = reported(&mut out, name, args.traced);

    let mode = if args.traced {
        "per-layer (traced run)"
    } else {
        "end-to-end (untraced run)"
    };
    println!(
        "== {name}: {mode}, seed {}, window {} s after {:.1} s warm-up",
        args.seed,
        window.as_secs(),
        warmup.as_secs_f64()
    );
    println!("host: {host}; processor time stolen during the run: {stolen_s:.2} s");
    for (metric, value) in &assigned {
        println!(
            "  {metric:<40} {value:>16.4} {}",
            spec::unit_of(metric).unwrap_or("")
        );
    }
    for (what, n) in &out.samples {
        println!("  samples: {what:<38} {n:>9}");
    }
    for family in &out.unsettled {
        println!("  UNSETTLED: {family} (half-window medians differ by more than 10 %)");
    }
    for e in &out.gate_errors {
        println!("  GATE FAILED: {e}");
    }
    let correct = out.gate_errors.is_empty();
    println!(
        "  attempted {} failed {} correct {correct}",
        out.attempted, out.failed
    );

    let metrics_json = |metrics: &BTreeMap<&'static str, f64>| {
        Json::obj(metrics.iter().map(|(name, v)| {
            let unit = spec::unit_of(name).expect("declared metrics have units");
            (
                *name,
                Json::obj([("value", Json::Num(*v)), ("unit", Json::str(unit))]),
            )
        }))
    };
    let doc = BTreeMap::from([
        ("workload".to_string(), Json::str(name)),
        (
            "mode".to_string(),
            Json::str(if args.traced {
                "per_layer"
            } else {
                "end_to_end"
            }),
        ),
        ("host".to_string(), host),
        ("stolen_s".to_string(), Json::Num(stolen_s)),
        ("window_s".to_string(), Json::Num(window.as_secs_f64())),
        ("warmup_s".to_string(), Json::Num(warmup.as_secs_f64())),
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::Num(out.attempted as f64)),
        ("failed".to_string(), Json::Num(out.failed as f64)),
        (
            "gate_errors".to_string(),
            Json::Arr(out.gate_errors.iter().map(Json::str).collect()),
        ),
        (
            "unsettled".to_string(),
            Json::Arr(out.unsettled.iter().map(Json::str).collect()),
        ),
        (
            "samples".to_string(),
            Json::obj(
                out.samples
                    .iter()
                    .map(|(k, n)| (k.clone(), Json::Num(*n as f64))),
            ),
        ),
        (
            "per_bin".to_string(),
            Json::obj(out.series.iter().map(|(k, v)| {
                (
                    k.clone(),
                    Json::Arr(v.iter().map(|x| Json::Num(*x)).collect()),
                )
            })),
        ),
        ("metrics".to_string(), metrics_json(&assigned)),
        ("result_line".to_string(), metrics_json(&line)),
    ]);
    let mut text = Json::Obj(doc).to_string();
    let file = if args.traced {
        text.truncate(text.len() - 1);
        text.push_str(", \"spans\": ");
        trace::write_spans(&mut text, &out.tracers);
        text.push('}');
        format!("{name}.trace.json")
    } else {
        format!("{name}.json")
    };
    text.push('\n');
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let path = args.out.join(file);
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;

    // The contract's result line: last line of standard output.
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(out.attempted.max(1) as f64)),
            ("failed", Json::Num(out.failed as f64)),
            ("metrics", metrics_json(&line)),
        ])
    );
    Ok(correct && (out.unsettled.is_empty() || !args.strict))
}

/// Every workload, untraced then traced, each run in its own child process
/// so no run inherits another's heap, page cache or peak RSS.
fn run_all(args: &RunArgs, out: &Path) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for w in &spec::WORKLOADS {
        for trace in ["0", "1"] {
            let mut cmd = Command::new(&exe);
            cmd.args(["run", "--workload", w.name, "--trace", trace])
                .args([
                    "--seed",
                    &args.seed.to_string(),
                    "--seconds",
                    &args.seconds.to_string(),
                ])
                .arg("--out")
                .arg(out);
            if args.smoke {
                cmd.arg("--smoke");
            }
            if args.strict {
                cmd.arg("--strict");
            }
            let status = cmd
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            if !status.success() {
                eprintln!("{} (trace {trace}) exited with {status}", w.name);
                ok = false;
            }
        }
    }
    Ok(ok)
}

fn main_inner(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("run") => {
            let run = parse_run_args(&args[1..])?;
            match &run.workload {
                Some(name) => run_one(&run, name),
                None => run_all(&run, &run.out),
            }
        }
        Some("probes") => {
            for (name, value) in probes::run(None, false).map_err(|e| e.to_string())? {
                println!(
                    "{name:<40} {value:>16.4} {}",
                    spec::unit_of(&name).unwrap_or("")
                );
            }
            Ok(true)
        }
        Some("compare") => match &args[1..] {
            [a, b] => Ok(compare::compare(
                &compare::load(Path::new(a))?,
                &compare::load(Path::new(b))?,
            ) == 0),
            _ => Err("usage: bench compare <dirA> <dirB>".into()),
        },
        Some("repeat") => {
            let n: usize = args
                .get(1)
                .and_then(|s| s.parse().ok())
                .ok_or("usage: bench repeat <n> [run flags]")?;
            let run = parse_run_args(&args[2..])?;
            let mut ok = true;
            for i in 0..n {
                let set = RunArgs {
                    seed: run.seed + i as u64,
                    workload: None,
                    out: run.out.clone(),
                    ..run
                };
                ok &= run_all(&set, &run.out.join(format!("run-{:02}", i + 1)))?;
            }
            compare::summarize(&compare::load(&run.out)?);
            Ok(ok)
        }
        Some("manifest") => {
            println!("{}", spec::manifest());
            Ok(true)
        }
        _ => Err("usage: bench run|probes|compare|repeat|manifest (see README.md)".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match main_inner(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::from(2)
        }
    }
}
