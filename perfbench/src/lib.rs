//! The repository benchmark: named workloads, each measured end to
//! end, plus a traced run that breaks every workload into the layers
//! of the workspace crates.
//!
//! Workloads (see `README.md` next to this crate for the full contract):
//!
//! * `paper-sweep` — the paper's Fig. 14/15 evaluation: every trace
//!   class under both scheduling policies at 1,000 servers × 288
//!   steps, on the dense oracle and on the change kernel;
//! * `fleet-stream` — `Simulator::run_fleet` over a fleet several times
//!   paper scale, streamed in bounded chunks on parallel lanes.
//!
//! An untraced run reports the end-to-end metrics; a traced run
//! (`--trace 1`) replays each engine step's layer calls from this
//! crate, attaches the program's own telemetry counters, and reports
//! per-layer metrics. The traced `paper-sweep` run also probes the
//! placement and serving layers in-process. Every run checks the
//! program's outputs, against committed reference digests among
//! others, and any mismatch counts as a failed operation.

pub mod digest;
pub mod engine;
pub mod fleet;
pub mod gateway;
pub mod host;
pub mod metrics;
pub mod paper;
pub mod placement;
pub mod reference;
pub mod replay;
pub mod spans;
pub mod stats;

use std::path::PathBuf;

/// Parsed command line of one benchmark run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name (see [`metrics::WORKLOADS`]).
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured window, in seconds.
    pub seconds: f64,
    /// `true` for the traced (per-layer) run.
    pub trace: bool,
    /// Flips one bit of every committed reference digest, to prove
    /// that a wrong reference is reported as a failure.
    pub corrupt_reference: bool,
    /// Directory for span logs and full result records.
    pub out_dir: PathBuf,
}
