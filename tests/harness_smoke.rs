//! End-to-end smoke of the benchmark harness at tiny scale: every
//! experiment must run and produce rows.

use noswalker_bench::datasets::Scale;
use noswalker_bench::experiments;

#[test]
fn tiny_scale_key_experiments_run() {
    for id in ["table1", "fig2", "fig14"] {
        assert!(experiments::dispatch(id, Scale::Tiny), "{id}");
    }
}

#[test]
fn unknown_experiment_is_rejected() {
    // Throughput and serving are `benchmark/`'s to measure, not an experiment's.
    for id in ["fig99", "throughput", "serve"] {
        assert!(!experiments::dispatch(id, Scale::Tiny), "{id}");
    }
}

/// The full suite at tiny scale (slower; run with `--ignored`).
#[test]
#[ignore = "runs every experiment; ~a minute"]
fn tiny_scale_full_suite_runs() {
    assert!(experiments::dispatch("all", Scale::Tiny));
}

#[test]
fn tiny_datasets_have_paper_shapes() {
    use noswalker::graph::stats::DegreeStats;
    let k30 = noswalker_bench::datasets::get("k30", Scale::Tiny);
    let g12 = noswalker_bench::datasets::get("g12", Scale::Tiny);
    let a27 = noswalker_bench::datasets::get("a27", Scale::Tiny);
    let (sk, sg, sa) = (
        DegreeStats::of(&k30.csr),
        DegreeStats::of(&g12.csr),
        DegreeStats::of(&a27.csr),
    );
    // Power-law vs uniform vs flat power-law ordering (paper §4.1).
    assert!(sk.gini > sa.gini);
    assert!(sa.gini > sg.gini);
    assert_eq!(sg.max_degree, 12);
    // α2.7's average degree tracks the paper's ~6.4.
    assert!((4.0..9.0).contains(&sa.avg_degree), "{}", sa.avg_degree);
}
