//! `run` and `repeat`: every workload in a fresh process of this same
//! executable, so no workload inherits another's heap, caches or threads.

use crate::json::{self, Value};
use crate::spec::{END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles, sorted, spread};
use crate::Args;
use std::process::{Command, ExitCode, Stdio};

/// What one child reported.
struct Child {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

fn run_child(workload: &str, args: &Args) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: cannot start: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("{workload}: exited with {}", output.status));
    }
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines
        .pop()
        .ok_or_else(|| format!("{workload}: printed nothing"))?;
    for l in lines {
        println!("{l}"); // the child's informational lines
    }
    let doc = json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let field = |k: &str| {
        doc.get(k)
            .ok_or_else(|| format!("{workload}: result has no {k}"))
    };
    let metrics = field("metrics")?
        .members()
        .ok_or_else(|| format!("{workload}: metrics is not an object"))?
        .iter()
        .map(|(name, m)| {
            let v = m.get("value").and_then(Value::as_f64);
            let unit = m.get("unit").and_then(Value::as_str);
            v.zip(unit)
                .map(|(v, unit)| (name.clone(), v, unit.to_string()))
                .ok_or_else(|| format!("{workload}: metric {name} is malformed"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Child {
        correct: field("correct")?.as_bool().unwrap_or(false),
        attempted: field("attempted")?.as_f64().unwrap_or(0.0) as u64,
        failed: field("failed")?.as_f64().unwrap_or(0.0) as u64,
        metrics,
    })
}

/// Runs the six workloads once and prints `workload metric value unit`
/// for every metric. Non-zero exit when a workload crashed, failed an
/// output check, or had a failed operation.
pub fn run(args: &Args) -> ExitCode {
    let mut bad = 0;
    for &(workload, _) in WORKLOADS {
        match run_child(workload, args) {
            Err(e) => {
                eprintln!("{e}");
                bad += 1;
            }
            Ok(c) => {
                for (name, v, unit) in &c.metrics {
                    println!("{workload} {name} {v} {unit}");
                }
                println!(
                    "# {workload} correct={} attempted={} failed={}",
                    c.correct, c.attempted, c.failed
                );
                if !c.correct || c.failed > 0 {
                    bad += 1;
                }
            }
        }
    }
    if bad > 0 {
        eprintln!(
            "{bad} of {} workloads crashed, failed a check or had failed operations",
            WORKLOADS.len()
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

/// Runs `sets` whole sets and prints, per workload and end-to-end metric,
/// the median, the quartiles, the spread and the bound.
///
/// With the same seed in every set (the default) two sets disagree when
/// `(max − min) ÷ median` passes the metric's bound. With `--vary-seed`
/// set `k` runs seed `S + k` and the test is the driver's: the distance
/// between the quartiles over the median must stay within the bound
/// (`setup_s` is printed, not tested, as in the contract).
pub fn repeat(args: &Args, sets: usize, vary_seed: bool) -> ExitCode {
    let mut untraced = args.clone();
    untraced.trace = false;
    // values[workload][metric] = one value per set
    let mut values = vec![vec![Vec::<f64>::new(); END_TO_END.len()]; WORKLOADS.len()];
    let mut bad = 0;
    for k in 0..sets {
        let mut set_args = untraced.clone();
        if vary_seed {
            set_args.seed += k as u64;
        }
        for (w, &(workload, _)) in WORKLOADS.iter().enumerate() {
            match run_child(workload, &set_args) {
                Err(e) => {
                    eprintln!("set {k}: {e}");
                    bad += 1;
                }
                Ok(c) => {
                    if !c.correct || c.failed > 0 {
                        eprintln!(
                            "set {k}: {workload}: correct={} failed={}",
                            c.correct, c.failed
                        );
                        bad += 1;
                    }
                    for (m, &(name, ..)) in END_TO_END.iter().enumerate() {
                        match c.metrics.iter().find(|x| x.0 == name) {
                            Some(x) => values[w][m].push(x.1),
                            None => {
                                eprintln!("set {k}: {workload}: metric {name} missing");
                                bad += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    println!("workload metric unit median q1 q3 spread range bound verdict");
    for (w, &(workload, _)) in WORKLOADS.iter().enumerate() {
        for (m, &(name, unit, better, bound)) in END_TO_END.iter().enumerate() {
            let v = &values[w][m];
            if v.len() < 2 {
                continue;
            }
            let s = sorted(v);
            let (q1, q3) = quartiles(v);
            let med = median(v);
            let range = (s[s.len() - 1] - s[0]) / med.abs().max(f64::MIN_POSITIVE);
            let tested = if vary_seed { spread(v) } else { range };
            let exempt = vary_seed && name == "setup_s";
            let ok = exempt || tested <= bound;
            if !ok {
                bad += 1;
            }
            println!(
                "{workload} {name} {unit}({}) {med:.6} {q1:.6} {q3:.6} {:.4} {range:.4} {bound} {}",
                better.as_str(),
                spread(v),
                if exempt {
                    "printed"
                } else if ok {
                    "agree"
                } else {
                    "DISAGREE"
                },
            );
        }
    }
    if bad > 0 {
        eprintln!("{bad} problems: a run failed, or sets disagree by more than a bound");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
