//! Hand-rolled argument parsing for the `noswalker` binary.

use noswalker_serve::Backend;
use std::fmt;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// The subcommand to execute.
    pub command: Command,
}

/// The CLI subcommands.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Convert a text edge list into the binary CSR container.
    Convert {
        /// Input edge-list path.
        input: String,
        /// Output `.csr` path.
        output: String,
    },
    /// Print statistics of a binary CSR graph.
    Info {
        /// Graph path.
        graph: String,
    },
    /// Generate a synthetic graph.
    Generate {
        /// Generator family: `rmat`, `uniform`, or `powerlaw`.
        family: String,
        /// log2 of the vertex count.
        scale: u32,
        /// Average (rmat) / exact (uniform) / minimum (powerlaw) degree.
        degree: u32,
        /// Output `.csr` path.
        output: String,
        /// RNG seed.
        seed: u64,
    },
    /// Run a random walk application on a stored graph.
    Run {
        /// Graph path (`.csr`) or text edge list.
        graph: String,
        /// Application: `basic`, `ppr`, `rwr`, `rwd`, `graphlet`,
        /// `deepwalk`, `node2vec`.
        app: String,
        /// Engine: `noswalker`, `graphwalker`, `drunkardmob`, `graphene`,
        /// `inmemory`, `parallel`.
        engine: String,
        /// Memory budget as a percentage of the edge region.
        budget_pct: u32,
        /// Number of walkers (app-specific default when 0).
        walkers: u64,
        /// Walk length.
        length: u32,
        /// RNG seed.
        seed: u64,
        /// Optional path for a structured run trace (`.json` or `.tsv`).
        trace_out: Option<String>,
    },
    /// Replay a query trace against the online serving engine.
    Serve {
        /// Graph path (`.csr`) or text edge list.
        graph: String,
        /// Query script path (`at_us class walkers length [deadline_us]`).
        script: String,
        /// Memory budget as a percentage of the edge region.
        budget_pct: u32,
        /// RNG seed.
        seed: u64,
        /// Step-kernel backend (`--backend seq|par`).
        backend: Backend,
        /// Number of serve-plane shards (1 = the unsharded engine).
        shards: u32,
        /// Serving mode: `lockstep` (deterministic modeled-time replay)
        /// or `realtime` (background tick thread, wall-paced arrivals).
        mode: String,
        /// Realtime only: hard wall-time cap in milliseconds (0 = serve
        /// the whole trace).
        duration_ms: u64,
    },
}

/// A CLI parse failure; `Display` is the message shown to the user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Usage text.
pub const USAGE: &str = "\
noswalker — out-of-core random walk processing (ASPLOS '23 reproduction)

USAGE:
  noswalker convert  <edges.txt> <out.csr>
  noswalker info     <graph.csr>
  noswalker generate <rmat|uniform|powerlaw> --scale N --degree D [--seed S] <out.csr>
  noswalker run      <graph> --app APP [--engine ENGINE] [--walkers N]
                     [--length L] [--budget-pct P] [--seed S]
                     [--trace-out run.json|run.tsv]
  noswalker serve    <graph> --script <trace.txt> [--budget-pct P] [--seed S]
                     [--backend seq|par] [--shards N]
                     [--mode lockstep|realtime] [--duration-ms D]

APPS:     basic ppr rwr rwd graphlet deepwalk node2vec
ENGINES:  noswalker (default) graphwalker drunkardmob graphene inmemory parallel
";

fn bad(msg: impl Into<String>) -> ParseError {
    ParseError(msg.into())
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, ParseError> {
    let v = v.ok_or_else(|| bad(format!("{flag} needs a value")))?;
    v.parse()
        .map_err(|_| bad(format!("invalid value {v:?} for {flag}")))
}

/// Parses a full argument vector (without the program name).
///
/// # Errors
///
/// [`ParseError`] with a user-facing message on any malformed input.
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Cli, ParseError> {
    let mut it = args.into_iter().peekable();
    let sub = it.next().ok_or_else(|| bad(USAGE))?;
    let command = match sub.as_str() {
        "convert" => {
            let input = it.next().ok_or_else(|| bad("convert needs <edges.txt>"))?;
            let output = it.next().ok_or_else(|| bad("convert needs <out.csr>"))?;
            Command::Convert { input, output }
        }
        "info" => {
            let graph = it.next().ok_or_else(|| bad("info needs <graph.csr>"))?;
            Command::Info { graph }
        }
        "generate" => {
            let family = it.next().ok_or_else(|| bad("generate needs a family"))?;
            let mut scale = None;
            let mut degree = None;
            let mut seed = 42u64;
            let mut output = None;
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--scale" => scale = Some(parse_num("--scale", it.next())?),
                    "--degree" => degree = Some(parse_num("--degree", it.next())?),
                    "--seed" => seed = parse_num("--seed", it.next())?,
                    other if !other.starts_with('-') => output = Some(other.to_string()),
                    other => return Err(bad(format!("unknown flag {other}"))),
                }
            }
            Command::Generate {
                family,
                scale: scale.ok_or_else(|| bad("generate needs --scale"))?,
                degree: degree.ok_or_else(|| bad("generate needs --degree"))?,
                output: output.ok_or_else(|| bad("generate needs an output path"))?,
                seed,
            }
        }
        "run" => {
            let graph = it.next().ok_or_else(|| bad("run needs a graph path"))?;
            let mut app = None;
            let mut engine = "noswalker".to_string();
            let mut budget_pct = 12u32;
            let mut walkers = 0u64;
            let mut length = 10u32;
            let mut seed = 42u64;
            let mut trace_out = None;
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--app" => app = it.next(),
                    "--engine" => {
                        engine = it.next().ok_or_else(|| bad("--engine needs a value"))?;
                    }
                    "--budget-pct" => budget_pct = parse_num("--budget-pct", it.next())?,
                    "--walkers" => walkers = parse_num("--walkers", it.next())?,
                    "--length" => length = parse_num("--length", it.next())?,
                    "--seed" => seed = parse_num("--seed", it.next())?,
                    "--trace-out" => {
                        trace_out = Some(it.next().ok_or_else(|| bad("--trace-out needs a path"))?);
                    }
                    other => return Err(bad(format!("unknown flag {other}"))),
                }
            }
            Command::Run {
                graph,
                app: app.ok_or_else(|| bad("run needs --app"))?,
                engine,
                budget_pct,
                walkers,
                length,
                seed,
                trace_out,
            }
        }
        "serve" => {
            let graph = it.next().ok_or_else(|| bad("serve needs a graph path"))?;
            let mut script = None;
            let mut budget_pct = 12u32;
            let mut seed = 42u64;
            let mut backend = Backend::Seq;
            let mut shards = 1u32;
            let mut mode = "lockstep".to_string();
            let mut duration_ms = 0u64;
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--script" => {
                        script = Some(it.next().ok_or_else(|| bad("--script needs a path"))?);
                    }
                    "--budget-pct" => budget_pct = parse_num("--budget-pct", it.next())?,
                    "--seed" => seed = parse_num("--seed", it.next())?,
                    "--backend" => {
                        let v = it.next().ok_or_else(|| bad("--backend needs a value"))?;
                        backend = Backend::parse(&v).ok_or_else(|| {
                            bad(format!(
                                "invalid value {v:?} for --backend (expected seq or par)"
                            ))
                        })?;
                    }
                    "--shards" => {
                        shards = parse_num("--shards", it.next())?;
                        if shards == 0 {
                            return Err(bad("--shards must be at least 1"));
                        }
                    }
                    "--mode" => {
                        mode = it.next().ok_or_else(|| bad("--mode needs a value"))?;
                        if !matches!(mode.as_str(), "lockstep" | "realtime") {
                            return Err(bad(format!(
                                "invalid value {mode:?} for --mode (expected lockstep or realtime)"
                            )));
                        }
                    }
                    "--duration-ms" => duration_ms = parse_num("--duration-ms", it.next())?,
                    other => return Err(bad(format!("unknown flag {other}"))),
                }
            }
            if duration_ms != 0 && mode != "realtime" {
                return Err(bad("--duration-ms requires --mode realtime"));
            }
            if mode == "realtime" && shards != 1 {
                return Err(bad("--mode realtime serves unsharded (drop --shards)"));
            }
            Command::Serve {
                graph,
                script: script.ok_or_else(|| bad("serve needs --script"))?,
                budget_pct,
                seed,
                backend,
                shards,
                mode,
                duration_ms,
            }
        }
        "--help" | "-h" | "help" => return Err(bad(USAGE)),
        other => return Err(bad(format!("unknown subcommand {other}\n\n{USAGE}"))),
    };
    Ok(Cli { command })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Result<Cli, ParseError> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_convert() {
        let cli = p("convert in.txt out.csr").unwrap();
        assert_eq!(
            cli.command,
            Command::Convert {
                input: "in.txt".into(),
                output: "out.csr".into()
            }
        );
    }

    #[test]
    fn parses_generate_with_flags_in_any_order() {
        let cli = p("generate rmat --degree 8 --scale 12 out.csr --seed 7").unwrap();
        assert_eq!(
            cli.command,
            Command::Generate {
                family: "rmat".into(),
                scale: 12,
                degree: 8,
                output: "out.csr".into(),
                seed: 7
            }
        );
    }

    #[test]
    fn parses_run_with_defaults() {
        let cli = p("run g.csr --app ppr").unwrap();
        match cli.command {
            Command::Run {
                engine,
                budget_pct,
                length,
                trace_out,
                ..
            } => {
                assert_eq!(engine, "noswalker");
                assert_eq!(budget_pct, 12);
                assert_eq!(length, 10);
                assert_eq!(trace_out, None);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parses_trace_out() {
        let cli = p("run g.csr --app basic --trace-out run.json").unwrap();
        match cli.command {
            Command::Run { trace_out, .. } => assert_eq!(trace_out.as_deref(), Some("run.json")),
            other => panic!("wrong command {other:?}"),
        }
        assert!(p("run g.csr --app basic --trace-out")
            .unwrap_err()
            .0
            .contains("--trace-out"));
    }

    #[test]
    fn rejects_missing_values_and_unknown_flags() {
        assert!(p("run g.csr").unwrap_err().0.contains("--app"));
        assert!(p("generate rmat --scale")
            .unwrap_err()
            .0
            .contains("--scale"));
        assert!(p("run g.csr --app basic --frob 1")
            .unwrap_err()
            .0
            .contains("unknown flag"));
        assert!(p("frobnicate")
            .unwrap_err()
            .0
            .contains("unknown subcommand"));
        assert!(p("run g.csr --app basic --walkers abc")
            .unwrap_err()
            .0
            .contains("invalid value"));
    }

    #[test]
    fn parses_serve() {
        let cli = p("serve g.csr --script trace.txt --budget-pct 25 --seed 9").unwrap();
        assert_eq!(
            cli.command,
            Command::Serve {
                graph: "g.csr".into(),
                script: "trace.txt".into(),
                budget_pct: 25,
                seed: 9,
                backend: Backend::Seq,
                shards: 1,
                mode: "lockstep".into(),
                duration_ms: 0,
            }
        );
        assert!(p("serve g.csr").unwrap_err().0.contains("--script"));
        assert!(p("serve g.csr --script")
            .unwrap_err()
            .0
            .contains("--script"));
        assert!(p("serve g.csr --script t --frob 1")
            .unwrap_err()
            .0
            .contains("unknown flag"));
    }

    #[test]
    fn parses_serve_backend() {
        for b in [Backend::Seq, Backend::Par] {
            let cli = p(&format!(
                "serve g.csr --script t.txt --backend {}",
                b.name()
            ))
            .unwrap();
            match cli.command {
                Command::Serve { backend, .. } => assert_eq!(backend, b),
                other => panic!("wrong command {other:?}"),
            }
        }
        for unknown in ["threads", "auto"] {
            let e = p(&format!("serve g.csr --script t.txt --backend {unknown}")).unwrap_err();
            assert!(
                e.0.contains("invalid value") && e.0.contains("--backend"),
                "{e}"
            );
        }
        assert!(p("serve g.csr --script t.txt --backend")
            .unwrap_err()
            .0
            .contains("--backend"));
    }

    #[test]
    fn parses_serve_shards() {
        let cli = p("serve g.csr --script t.txt --shards 4").unwrap();
        match cli.command {
            Command::Serve { shards, .. } => assert_eq!(shards, 4),
            other => panic!("wrong command {other:?}"),
        }
        assert!(p("serve g.csr --script t.txt --shards 0")
            .unwrap_err()
            .0
            .contains("--shards"));
        assert!(p("serve g.csr --script t.txt --shards")
            .unwrap_err()
            .0
            .contains("--shards"));
        assert!(p("serve g.csr --script t.txt --shards four")
            .unwrap_err()
            .0
            .contains("invalid value"));
    }

    #[test]
    fn parses_serve_mode_and_duration() {
        let cli = p("serve g.csr --script t.txt --mode realtime --duration-ms 250").unwrap();
        match cli.command {
            Command::Serve {
                mode, duration_ms, ..
            } => {
                assert_eq!(mode, "realtime");
                assert_eq!(duration_ms, 250);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(p("serve g.csr --script t.txt --mode turbo")
            .unwrap_err()
            .0
            .contains("--mode"));
        // A duration cap is a realtime concept; lockstep replays run on
        // modeled time, so wall caps there are a user error.
        assert!(p("serve g.csr --script t.txt --duration-ms 5")
            .unwrap_err()
            .0
            .contains("--mode realtime"));
        assert!(p("serve g.csr --script t.txt --mode realtime --shards 2")
            .unwrap_err()
            .0
            .contains("unsharded"));
    }

    #[test]
    fn help_prints_usage() {
        assert!(p("--help").unwrap_err().0.contains("USAGE"));
    }
}
