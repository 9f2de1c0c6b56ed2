//! # cgpa-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§4):
//! Table 2 (pipeline partitions), Figure 4 (speedups), Table 3
//! (area/power/energy), the P1-vs-P2 tradeoff, and the Appendix B
//! scalability sweep. See the `experiments` binary. [`ledger`] records
//! every modelled result of the quick suite exactly, for `experiments
//! bench` and `experiments compare`.

pub mod ledger;
pub mod suite;

pub use suite::{bench_kernels, full_report, scalability_sweep, KernelSet};
