//! Umbrella crate for the CGPA reproduction workspace.
//!
//! Re-exports the per-subsystem crates so that examples and integration
//! tests can use a single import root. See [`cgpa`] for the top-level
//! compiler entry points.

pub use cgpa;
pub use cgpa_analysis as analysis;
pub use cgpa_ir as ir;
pub use cgpa_kernels as kernels;
pub use cgpa_obs as obs;
pub use cgpa_pipeline as pipeline;
pub use cgpa_rtl as rtl;
pub use cgpa_sim as sim;

// README's Rust examples compile as doctests, so they follow the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
