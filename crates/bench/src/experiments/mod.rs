//! One module per paper table/figure. Each exposes `run(scale)`, prints a
//! table shaped like the figure's series and writes `results/<id>.tsv`.
//! Serving and engine throughput are measured by `benchmark/`, not here.

pub mod ablations;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig2;
pub mod fig4;
pub mod fig9;
pub mod table1;

use crate::datasets::Scale;

/// An experiment's entry point.
type Run = fn(Scale);

/// Every experiment in paper order: its id and its entry point.
pub const ALL: &[(&str, Run)] = &[
    ("table1", table1::run),
    ("fig2", fig2::run),
    ("fig4", fig4::run),
    ("fig9", fig9::run),
    ("fig10", fig10::run),
    ("fig11", fig11::run),
    ("fig12a", fig12::run_12a),
    ("fig12bc", fig12::run_12bc),
    ("fig13", fig13::run),
    ("fig14", fig14::run),
    ("fig15", fig15::run),
    ("fig16", fig16::run),
    ("fig17", fig17::run),
    ("ablation-alloc", ablations::run_alloc),
    ("ablation-lowdeg", ablations::run_lowdeg),
    ("ablation-ssds", ablations::run_ssds),
    ("ablation-g25", ablations::run_g25),
];

/// Runs the experiment named `id` (`"all"` runs every entry of [`ALL`]).
/// Returns whether the id is known.
pub fn dispatch(id: &str, scale: Scale) -> bool {
    let mut known = false;
    for (name, run) in ALL {
        if id == "all" || id == *name {
            run(scale);
            known = true;
        }
    }
    known
}
