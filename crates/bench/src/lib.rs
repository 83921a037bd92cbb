//! # tora-bench — experiment harnesses and benchmarks
//!
//! Regenerates every table and figure of the paper's evaluation (§V):
//!
//! | Paper artifact | Binary | What it prints |
//! |---|---|---|
//! | Figure 2 | `fig2_traces` | per-task peak scatter data for ColmenaXTB and TopEFT |
//! | Figure 4 | `fig4_synthetic` | per-task memory of the five synthetic workflows |
//! | Figure 5 | `fig5_awe` | AWE (cores/memory/disk), 7 workflows × 7 algorithms |
//! | Figure 6 | `fig6_waste` | waste breakdown (IF vs FA), 7 workflows × 6 algorithms |
//! | Table I | `table1_timing` | µs per bucketing-state compute at 10–5000 records |
//! | ablations | `ablation_sweep` | design-choice sweeps called out in DESIGN.md |
//! | resilience | `chaos_sweep` | GB/EB AWE degradation versus injected fault rate |
//!
//! Criterion benches (`cargo bench -p tora-bench`) cover the Table I
//! measurement (`table1_state_compute`) and steady-state per-allocation
//! prediction cost across all seven algorithms (`predict_cost`).
//!
//! Set `TORA_RESULTS_DIR=<dir>` to also dump each harness's raw cells as
//! JSON/CSV for post-processing. The harnesses fan independent cells across
//! cores via [`pool::run_parallel`]; `TORA_THREADS` caps the worker count
//! (`TORA_THREADS=1` forces a sequential run with identical output).
//! [`perf::run_bench`] backs the `tora bench` subcommand and writes
//! `BENCH.json`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chaos;
pub mod experiments;
pub mod figdag;
pub mod figlearned;
pub mod perf;
pub mod pool;
pub mod timing;

pub use chaos::{run_chaos_cell, run_chaos_sweep, ChaosCell};
pub use experiments::{run_cell, run_matrix, run_matrix_for, MatrixCell, MatrixConfig};
pub use perf::{run_bench, BenchReport};
pub use pool::run_parallel;
pub use timing::{loaded_estimator, sample_values, state_compute_time, TABLE1_SIZES};
