//! Experiment harness for the Curb reproduction.
//!
//! One binary per paper figure (`fig4` … `fig9`, plus `complexity` for
//! Theorem 1); this library holds the shared pieces: the scenario
//! runners, sweep definitions and a plain-text table printer. Binaries
//! accept `--csv` to emit machine-readable output instead.
//!
//! Three more binaries drive the socket runtime functionally:
//! `edgebench` (the declarative scenario matrix, [`scenario`]),
//! `tracedump` (span files to per-phase and cross-node tables,
//! [`distributed`]) and `walsmoke` (crash recovery of the chain store).
//! None of them is a benchmark: performance is measured by `curbbench`,
//! the standalone package in `benchmark/`.
//!
//! Run them with, for example:
//!
//! ```text
//! cargo run --release -p curb-bench --bin fig5 -- --panel a
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distributed;
pub mod report;
pub mod scenario;
pub mod scenarios;
pub mod spans;
pub mod table;
pub mod viz;

pub use report::{Json, SCHEMA_VERSION};
pub use scenario::{detect_knee, Knee, PhasePoint, Scenario, Topology, KNEE_RATIO};
pub use scenarios::*;
pub use table::Table;
pub use viz::render_html;

/// Returns the value following `--name` in the process arguments.
pub fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    let flag = format!("--{name}");
    args.iter()
        .position(|a| *a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Returns whether `--name` appears in the process arguments.
pub fn arg_flag(name: &str) -> bool {
    let flag = format!("--{name}");
    std::env::args().any(|a| a == flag)
}
