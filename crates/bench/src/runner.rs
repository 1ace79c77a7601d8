//! Shared machinery for running (system × app × dataset) cells.

use crate::datasets::{default_block_bytes, Dataset};
use noswalker_baselines::{DistributedSim, DrunkardMob, GraSorw, GraphWalker, Graphene, InMemory};
use noswalker_core::audit::MemorySink;
use noswalker_core::{
    EngineOptions, NosWalkerEngine, OnDiskGraph, RunMetrics, SecondOrderWalk, Walk,
};
use noswalker_storage::{Device, MemoryBudget, SimSsd, SsdProfile};
use std::sync::Arc;

/// The systems the harness can drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// DrunkardMob baseline.
    DrunkardMob,
    /// GraphWalker baseline.
    GraphWalker,
    /// NosWalker (full optimizations unless overridden).
    NosWalker,
    /// Graphene baseline.
    Graphene,
}

impl SystemKind {
    /// Display label matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::DrunkardMob => "DrunkardMob",
            SystemKind::GraphWalker => "GraphWalker",
            SystemKind::NosWalker => "NosWalker",
            SystemKind::Graphene => "Graphene",
        }
    }
}

/// A run result: metrics, or the reason the system could not run the cell
/// (the paper leaves such bars out, e.g. DrunkardMob on K31/CW).
pub type Outcome = Result<RunMetrics, String>;

/// Seconds (simulated) or `-` for a failed cell.
pub fn secs(o: &Outcome) -> String {
    match o {
        Ok(m) => format!("{:.3}", m.sim_secs()),
        Err(_) => "-".to_string(),
    }
}

/// An environment for one run: a fresh simulated device holding the
/// dataset plus a fresh budget.
#[derive(Debug)]
pub struct Env {
    /// The on-device graph.
    pub graph: Arc<OnDiskGraph>,
    /// The run's memory budget.
    pub budget: Arc<MemoryBudget>,
}

/// Builds a fresh environment for `dataset` on an NVMe-profile device.
pub fn env(dataset: &Dataset, budget_bytes: u64) -> Env {
    env_on(dataset, budget_bytes, SsdProfile::nvme_p4618())
}

/// Builds a fresh environment on a device with the given profile.
pub fn env_on(dataset: &Dataset, budget_bytes: u64, profile: SsdProfile) -> Env {
    let device: Arc<dyn Device> = Arc::new(SimSsd::new(profile));
    env_with_device(dataset, budget_bytes, device)
}

/// Builds a fresh environment on an arbitrary device.
pub fn env_with_device(dataset: &Dataset, budget_bytes: u64, device: Arc<dyn Device>) -> Env {
    let graph = Arc::new(
        OnDiskGraph::store(&dataset.csr, device, default_block_bytes(dataset))
            .expect("storing the graph on a fresh device cannot fail"),
    );
    Env {
        graph,
        budget: MemoryBudget::new(budget_bytes),
    }
}

/// Runs `app` on `system` in a fresh `env`. DrunkardMob is additionally
/// charged a GraphChi-style per-vertex value array, which is what makes it
/// unable to process the largest graphs in the paper.
pub fn run_system<A: Walk + 'static>(
    system: SystemKind,
    app: Arc<A>,
    dataset: &Dataset,
    budget_bytes: u64,
    opts: EngineOptions,
    seed: u64,
) -> Outcome {
    let e = env(dataset, budget_bytes);
    run_system_in(system, app, &e, opts, seed)
}

/// As [`run_system`] but in a caller-provided environment.
pub fn run_system_in<A: Walk + 'static>(
    system: SystemKind,
    app: Arc<A>,
    e: &Env,
    opts: EngineOptions,
    seed: u64,
) -> Outcome {
    let res = match system {
        SystemKind::DrunkardMob => {
            // GraphChi vertex value array: 16 B per vertex held in memory.
            let vertex_values = e.budget.try_reserve(e.graph.num_vertices() as u64 * 16);
            match vertex_values {
                Ok(_hold) => {
                    DrunkardMob::new(app, Arc::clone(&e.graph), opts, Arc::clone(&e.budget))
                        .run(seed)
                }
                Err(err) => return Err(format!("OOM: {err}")),
            }
        }
        SystemKind::GraphWalker => {
            GraphWalker::new(app, Arc::clone(&e.graph), opts, Arc::clone(&e.budget)).run(seed)
        }
        SystemKind::NosWalker => {
            NosWalkerEngine::new(app, Arc::clone(&e.graph), opts, Arc::clone(&e.budget)).run(seed)
        }
        SystemKind::Graphene => {
            Graphene::new(app, Arc::clone(&e.graph), opts, Arc::clone(&e.budget)).run(seed)
        }
    };
    res.map_err(|err| format!("{err}"))
}

/// As [`run_system_in`], but recording a structured trace of the run.
/// Returns the outcome together with the recorded events, ready for
/// [`stall_table`] or `MemorySink::to_json`/`to_tsv` export.
pub fn run_system_traced<A: Walk + 'static>(
    system: SystemKind,
    app: Arc<A>,
    e: &Env,
    opts: EngineOptions,
    seed: u64,
) -> (Outcome, MemorySink) {
    let mut sink = MemorySink::new();
    let res = match system {
        SystemKind::DrunkardMob => {
            let vertex_values = e.budget.try_reserve(e.graph.num_vertices() as u64 * 16);
            match vertex_values {
                Ok(_hold) => {
                    DrunkardMob::new(app, Arc::clone(&e.graph), opts, Arc::clone(&e.budget))
                        .run_with_sink(seed, Some(&mut sink))
                        .map_err(|err| format!("{err}"))
                }
                Err(err) => Err(format!("OOM: {err}")),
            }
        }
        SystemKind::GraphWalker => {
            GraphWalker::new(app, Arc::clone(&e.graph), opts, Arc::clone(&e.budget))
                .run_with_sink(seed, Some(&mut sink))
                .map_err(|err| format!("{err}"))
        }
        SystemKind::NosWalker => {
            NosWalkerEngine::new(app, Arc::clone(&e.graph), opts, Arc::clone(&e.budget))
                .run_with_sink(seed, Some(&mut sink))
                .map_err(|err| format!("{err}"))
        }
        SystemKind::Graphene => {
            Graphene::new(app, Arc::clone(&e.graph), opts, Arc::clone(&e.budget))
                .run_with_sink(seed, Some(&mut sink))
                .map_err(|err| format!("{err}"))
        }
    };
    (res, sink)
}

/// Formats the stall attribution of a recorded trace as TSV rows
/// (`block<TAB>stall_ns<TAB>share`), worst offender first — the "which
/// block was the pipeline waiting on" breakdown for bench reports.
pub fn stall_table(sink: &MemorySink) -> String {
    let total = sink.total_stall_ns();
    let mut out = String::from("block\tstall_ns\tshare\n");
    for (block, ns) in sink.stall_by_block() {
        let who = match block {
            Some(b) => b.to_string(),
            None => "-".to_string(),
        };
        let share = if total > 0 {
            ns as f64 / total as f64
        } else {
            0.0
        };
        out.push_str(&format!("{who}\t{ns}\t{share:.3}\n"));
    }
    out
}

/// Runs a second-order app on NosWalker.
pub fn run_noswalker_2nd<A: SecondOrderWalk + 'static>(
    app: Arc<A>,
    dataset: &Dataset,
    budget_bytes: u64,
    opts: EngineOptions,
    seed: u64,
) -> Outcome {
    let e = env(dataset, budget_bytes);
    NosWalkerEngine::new(app, Arc::clone(&e.graph), opts, Arc::clone(&e.budget))
        .run_second_order(seed)
        .map_err(|err| format!("{err}"))
}

/// Runs a second-order app on GraSorw.
pub fn run_grasorw<A: SecondOrderWalk + 'static>(
    app: Arc<A>,
    dataset: &Dataset,
    budget_bytes: u64,
    opts: EngineOptions,
    seed: u64,
) -> Outcome {
    let e = env(dataset, budget_bytes);
    GraSorw::new(app, Arc::clone(&e.graph), opts, Arc::clone(&e.budget))
        .run(seed)
        .map_err(|err| format!("{err}"))
}

/// Runs the in-memory (ThunderRW-like) engine.
pub fn run_in_memory<A: Walk + 'static>(
    app: Arc<A>,
    dataset: &Dataset,
    opts: EngineOptions,
    seed: u64,
) -> RunMetrics {
    InMemory::new(
        app,
        Arc::clone(&dataset.csr),
        opts,
        SsdProfile::nvme_p4618(),
    )
    .run(seed)
}

/// Runs the simulated distributed (KnightKing-like) engine.
pub fn run_distributed<A: Walk + 'static>(
    app: Arc<A>,
    dataset: &Dataset,
    opts: EngineOptions,
    nodes: u32,
    seed: u64,
) -> RunMetrics {
    DistributedSim::new(
        app,
        Arc::clone(&dataset.csr),
        opts,
        nodes,
        SsdProfile::nvme_p4618(),
        noswalker_baselines::NetworkProfile::ten_gbe(),
    )
    .run(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{self, Scale};
    use noswalker_apps::BasicRw;

    #[test]
    fn secs_formats_outcomes() {
        let ok: Outcome = Ok(noswalker_core::RunMetrics {
            sim_ns: 1_234_000_000,
            ..Default::default()
        });
        assert_eq!(secs(&ok), "1.234");
        let err: Outcome = Err("OOM".into());
        assert_eq!(secs(&err), "-");
    }

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(SystemKind::NosWalker.label(), "NosWalker");
        assert_eq!(SystemKind::DrunkardMob.label(), "DrunkardMob");
        assert_eq!(SystemKind::GraphWalker.label(), "GraphWalker");
        assert_eq!(SystemKind::Graphene.label(), "Graphene");
    }

    #[test]
    fn all_three_systems_run_a_tiny_cell() {
        let d = datasets::get("k30", Scale::Tiny);
        let budget = datasets::default_budget(Scale::Tiny);
        for sys in [
            SystemKind::DrunkardMob,
            SystemKind::GraphWalker,
            SystemKind::NosWalker,
            SystemKind::Graphene,
        ] {
            let app = Arc::new(BasicRw::new(100, 5, d.csr.num_vertices()));
            let out = run_system(sys, app, &d, budget, EngineOptions::default(), 7);
            let m = out.unwrap_or_else(|e| panic!("{} failed: {e}", sys.label()));
            assert_eq!(m.walkers_finished, 100, "{}", sys.label());
        }
    }

    #[test]
    fn fine_batches_fit_a_budget_under_four_pages() {
        // k30 tiny at a 10 % budget is 13,107 B: a fine batch floored at
        // four pages (16 KiB) asked for more than the whole budget.
        let d = datasets::get("k30", Scale::Tiny);
        let budget = d.edge_bytes() * 10 / 100;
        for walkers in [500, 1000] {
            let app = Arc::new(BasicRw::new(walkers, 10, d.csr.num_vertices()));
            let out = run_system(
                SystemKind::NosWalker,
                app,
                &d,
                budget,
                EngineOptions::default(),
                31,
            );
            let m = out.unwrap_or_else(|e| panic!("{walkers} walkers: {e}"));
            assert_eq!(m.walkers_finished, walkers);
        }
    }

    #[test]
    fn traced_run_attributes_stalls_to_blocks() {
        let d = datasets::get("k30", Scale::Tiny);
        let budget = datasets::default_budget(Scale::Tiny);
        let e = env(&d, budget);
        let app = Arc::new(BasicRw::new(100, 5, d.csr.num_vertices()));
        let (out, sink) = run_system_traced(
            SystemKind::DrunkardMob,
            app,
            &e,
            EngineOptions::default(),
            7,
        );
        let m = out.unwrap();
        assert_eq!(m.walkers_finished, 100);
        assert!(!sink.events.is_empty(), "trace recorded");
        assert!(sink.total_stall_ns() > 0, "synchronous baseline stalls");
        let table = stall_table(&sink);
        assert!(table.starts_with("block\tstall_ns\tshare\n"), "{table}");
        assert!(table.lines().count() > 1, "{table}");
    }

    #[test]
    fn drunkardmob_reports_oom_on_huge_walker_counts() {
        let d = datasets::get("k30", Scale::Tiny);
        let budget = datasets::default_budget(Scale::Tiny);
        let app = Arc::new(BasicRw::new(50_000_000, 5, d.csr.num_vertices()));
        let out = run_system(
            SystemKind::DrunkardMob,
            app,
            &d,
            budget,
            EngineOptions::default(),
            7,
        );
        assert!(out.is_err());
    }
}
