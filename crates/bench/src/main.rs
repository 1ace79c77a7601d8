//! CLI entry point for the benchmark harness.

use noswalker_bench::datasets::Scale;
use noswalker_bench::experiments;
use std::process::ExitCode;

fn usage() {
    eprintln!("usage: noswalker-bench <experiment> [--scale default|tiny]");
    let ids: Vec<&str> = experiments::ALL.iter().map(|(id, _)| *id).collect();
    eprintln!("experiments: {} all", ids.join(" "));
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Default;
    let mut ids = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let Some(v) = it.next().and_then(|v| Scale::parse(v)) else {
                    usage();
                    return ExitCode::FAILURE;
                };
                scale = v;
            }
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            id => ids.push(id.to_string()),
        }
    }
    if ids.is_empty() {
        usage();
        return ExitCode::FAILURE;
    }
    for id in &ids {
        #[expect(
            clippy::disallowed_methods,
            reason = "the harness reports each experiment's host wall time"
        )]
        let start = std::time::Instant::now();
        if !experiments::dispatch(id, scale) {
            eprintln!("unknown experiment: {id}");
            usage();
            return ExitCode::FAILURE;
        }
        eprintln!("[{id} took {:.1}s wall]", start.elapsed().as_secs_f64());
    }
    ExitCode::SUCCESS
}
