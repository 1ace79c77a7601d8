//! The engine section every workload has: runs of the sequential engine
//! and the parallel runner (batch jobs, or the kernel rounds of a serve
//! workload), accumulated per engine and turned into the `seq_*`/`par_*`
//! end-to-end metrics and the `core.engine.*`/`core.parallel.*` layer
//! metrics.

use crate::spec::Metrics;
use crate::stats::median;
use noswalker_core::RunMetrics;

/// Worker threads for every parallel run: a constant (the sandbox's core
/// count), so results do not depend on where the benchmark runs.
pub const PAR_WORKERS: usize = 2;

/// Everything one engine did in a measured phase.
#[derive(Debug, Clone, Default)]
pub struct EngineTotals {
    /// Runs attempted and runs that returned `Ok` and passed their checks.
    pub runs: u64,
    pub ok: u64,
    /// Counters of the good runs, merged.
    pub merged: RunMetrics,
    /// Wall nanoseconds inside the engine over the good runs.
    pub wall_ns: u64,
    /// `steps ÷ wall` of each repetition, in steps per nanosecond.
    pub rep_rates: Vec<f64>,
    /// Largest `MemoryBudget::peak ÷ limit` seen.
    pub budget_peak_frac: f64,
}

impl EngineTotals {
    /// Folds one good run in.
    pub fn add(&mut self, m: &RunMetrics, wall_ns: u64) {
        self.merged.merge(m);
        self.wall_ns += wall_ns;
    }

    /// Closes a repetition that moved `steps` in `wall_ns`.
    pub fn close_rep(&mut self, steps: u64, wall_ns: u64) {
        if steps > 0 && wall_ns > 0 {
            self.rep_rates.push(steps as f64 / wall_ns as f64);
        }
    }

    /// Median over repetitions of `steps ÷ wall`, in M steps/s.
    pub fn wall_msteps_s(&self) -> f64 {
        median(&self.rep_rates) * 1e3
    }

    /// `Σ steps ÷ Σ sim_ns`, in M steps/s.
    pub fn model_msteps_s(&self) -> f64 {
        ratio(self.merged.steps, self.merged.sim_ns) * 1e3
    }
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The four engine end-to-end metrics.
pub fn end_to_end(out: &mut Metrics, seq: &EngineTotals, par: &EngineTotals) {
    out.set("seq_wall_msteps_s", seq.wall_msteps_s());
    out.set("par_wall_msteps_s", par.wall_msteps_s());
    out.set("seq_model_msteps_s", seq.model_msteps_s());
    out.set("par_model_msteps_s", par.model_msteps_s());
}

/// `core.engine.*` and `core.parallel.*` from the public `RunMetrics`
/// counters of the traced phase.
pub fn layers(out: &mut Metrics, seq: &EngineTotals, par: &EngineTotals) {
    let m = &seq.merged;
    let runs = seq.ok.max(1) as f64;
    out.set("core.engine.wall_ns_per_step", ratio(seq.wall_ns, m.steps));
    out.set("core.engine.model_ns_per_step", ratio(m.sim_ns, m.steps));
    out.set(
        "core.engine.io_bytes_per_step",
        ratio(m.edge_bytes_loaded, m.steps),
    );
    out.set("core.engine.coarse_loads", m.coarse_loads as f64 / runs);
    out.set("core.engine.fine_loads", m.fine_loads as f64 / runs);
    out.set(
        "core.engine.steps_on_block_frac",
        ratio(m.steps_on_block, m.steps),
    );
    out.set(
        "core.engine.steps_on_presample_frac",
        ratio(m.steps_on_presample, m.steps),
    );
    out.set(
        "core.engine.steps_on_raw_frac",
        ratio(m.steps_on_raw, m.steps),
    );
    out.set(
        "core.engine.presample_use_ratio",
        ratio(m.presamples_consumed, m.presamples_filled),
    );
    out.set("core.engine.stall_frac", ratio(m.stall_ns, m.sim_ns));
    out.set(
        "core.engine.io_util",
        ratio(m.io_busy_ns, m.sim_ns).min(1.0),
    );
    out.set("core.engine.budget_peak_frac", seq.budget_peak_frac);

    let p = &par.merged;
    let runs = par.ok.max(1) as f64;
    out.set(
        "core.parallel.wall_ns_per_step",
        ratio(par.wall_ns, p.steps),
    );
    out.set("core.parallel.model_ns_per_step", ratio(p.sim_ns, p.steps));
    out.set(
        "core.parallel.io_bytes_per_step",
        ratio(p.edge_bytes_loaded, p.steps),
    );
    out.set("core.parallel.coarse_loads", p.coarse_loads as f64 / runs);
    out.set(
        "core.parallel.pool_stalls_per_step",
        ratio(p.pool_stalls, p.steps),
    );
    out.set(
        "core.parallel.pool_deferrals_per_step",
        ratio(p.pool_deferrals, p.steps),
    );
    out.set(
        "core.parallel.claims_burned_per_step",
        ratio(p.claims_burned, p.steps),
    );
    out.set(
        "core.parallel.prefetch_hit_ratio",
        ratio(p.prefetch_hits, p.prefetch_hits + p.prefetch_wasted),
    );
    out.set("core.parallel.run_errors", (par.runs - par.ok) as f64);
}
