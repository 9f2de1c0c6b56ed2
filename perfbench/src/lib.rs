//! # cgpa-perfbench — the CGPA toolchain's benchmark
//!
//! A closed-loop benchmark over the toolchain's public API: one client
//! sends the next request when the previous one returns. Three workloads
//! (`suite`, `himem-dse`, `compile`) stress different layers; with tracing
//! off the run reports end-to-end metrics, and a traced run takes every
//! call apart into spans to report per-layer metrics. See `README.md` in
//! this directory for every metric's definition.

pub mod alloc;
pub mod calls;
pub mod env;
pub mod layers;
pub mod metrics;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;
