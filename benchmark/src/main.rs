//! The repository benchmark. See `README.md` beside this package.
//!
//! ```text
//! benchmark --workload W --seed S --seconds T --trace 0|1   one workload; last stdout line is JSON
//! benchmark run [--seed S] [--seconds T] [--trace]          all six, each in a fresh process
//! benchmark repeat N [--seed S] [--seconds T] [--vary-seed] N sets, medians and spread
//! ```

mod batch;
mod engines;
mod inputs;
mod json;
mod probes;
mod serve;
mod shard;
mod spans;
mod spec;
mod stats;
mod suite;

use json::{obj, Value};
use spans::Tracer;
use spec::{metrics_json, Metrics, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;

/// Arguments of one workload run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// `VmHWM` of this process in MB (0 where `/proc` has no such line).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Ends the process over a broken environment (a simulated device that
/// cannot be written, say): no result line, non-zero exit.
pub fn fatal(msg: &str) -> ! {
    eprintln!("benchmark: {msg}");
    std::process::exit(1)
}

/// Runs a workload's set-up — three times when the set-up time is what is
/// reported (`setup_s` is the median), once when tracing — and returns the
/// last product; `discard` disposes of the earlier ones before the next is
/// built, so two never coexist.
pub fn set_up<T>(
    args: &Args,
    tracer: &mut Tracer,
    out: &mut Metrics,
    mut build: impl FnMut(&mut Tracer, spans::SpanId, &mut Metrics) -> T,
    mut discard: impl FnMut(T),
) -> T {
    let mut seconds = Vec::new();
    let mut made = None;
    for _ in 0..if args.trace { 1 } else { 3 } {
        if let Some(previous) = made.take() {
            discard(previous);
        }
        let t = std::time::Instant::now();
        let span = tracer.begin("bench.setup", None, 0, 0);
        made = Some(build(tracer, span, out));
        tracer.end(span);
        seconds.push(t.elapsed().as_secs_f64());
    }
    out.set("setup_s", stats::median(&seconds));
    made.expect("set-up ran at least once")
}

/// Where result and trace files go: `benchmark/out` from the repository
/// root, `out` from the package directory.
fn out_dir() -> PathBuf {
    if std::path::Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

fn write_files(args: &Args, outcome: &Outcome, tracer: &Tracer) -> std::io::Result<()> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let result = obj([
        ("workload", Value::Str(args.workload.clone())),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("correct", Value::Bool(outcome.correct)),
        ("attempted", Value::Num(outcome.attempted as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        ("metrics", metrics_json(outcome.metrics.complete())),
        ("info", metrics_json(outcome.info.clone())),
        (
            "failures",
            Value::Arr(outcome.failures.iter().cloned().map(Value::Str).collect()),
        ),
    ]);
    let kind = if args.trace { "layers" } else { "result" };
    std::fs::write(
        dir.join(format!("{kind}-{}.json", args.workload)),
        result.render() + "\n",
    )?;
    if args.trace {
        std::fs::write(
            dir.join(format!("trace-{}.json", args.workload)),
            tracer.to_json(&args.workload).render() + "\n",
        )?;
    }
    Ok(())
}

/// Runs one workload in this process and prints its result line.
fn one(args: &Args) -> ExitCode {
    let (outcome, tracer) = if let Some(spec) = batch::spec_for(&args.workload) {
        batch::run(&spec, args)
    } else if let Some(spec) = serve::spec_for(&args.workload) {
        serve::run(&spec, args)
    } else if args.workload == "serve-shard" {
        shard::run(args)
    } else {
        eprintln!("unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    if let Err(e) = write_files(args, &outcome, &tracer) {
        eprintln!("cannot write result files: {e}");
        return ExitCode::from(1);
    }
    for f in &outcome.failures {
        eprintln!("{}: failure: {f}", args.workload);
    }
    for (name, v, unit) in &outcome.info {
        println!("# {} {name} {v} {unit}", args.workload);
    }
    println!("{}", outcome.result_line().render());
    ExitCode::SUCCESS
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: benchmark --workload W --seed S --seconds T --trace 0|1\n       \
         benchmark run [--seed S] [--seconds T] [--trace]\n       \
         benchmark repeat N [--seed S] [--seconds T] [--vary-seed]"
    );
    ExitCode::from(2)
}

/// Parses the flags after the command word: the run arguments, the set
/// count of `repeat`, and `--vary-seed`.
fn parse_flags(command: &str, rest: &[String]) -> Result<(Args, Option<usize>, bool), String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: spec::DEFAULT_SECONDS,
        trace: false,
    };
    let mut sets = None;
    let mut vary_seed = false;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => args.workload.clone_from(value()?),
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 1.0)
                    .ok_or("--seconds takes a number of at least 1")?;
            }
            "--trace" if command == "one" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--trace" if command == "run" => args.trace = true,
            "--vary-seed" if command == "repeat" => vary_seed = true,
            n if command == "repeat" && sets.is_none() => {
                sets = Some(n.parse().map_err(|_| format!("bad set count {n:?}"))?);
            }
            _ => return Err(format!("bad argument {a:?}")),
        }
    }
    Ok((args, sets, vary_seed))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some("run") => ("run", &argv[1..]),
        Some("repeat") => ("repeat", &argv[1..]),
        Some(flag) if flag.starts_with("--") => ("one", &argv[..]),
        _ => return usage(),
    };
    let (args, sets, vary_seed) = match parse_flags(command, rest) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    match command {
        "one" => one(&args),
        "run" => suite::run(&args),
        _ => match sets {
            Some(n) if n >= 2 => suite::repeat(&args, n, vary_seed),
            _ => {
                eprintln!("repeat needs a set count of at least 2");
                usage()
            }
        },
    }
}
