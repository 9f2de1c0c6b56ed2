//! # cgpa-kernels — the paper's five benchmark kernels
//!
//! Table 2 of the paper evaluates CGPA on five kernels from different
//! domains. Each module here provides the kernel as authored IR (the
//! substitution for the clang/LLVM frontend, see DESIGN.md §2), a seeded
//! workload generator that lays the data out in simulated memory with the
//! irregularity the original programs exhibit, the kernel's
//! [`MemoryModel`] (the alias facts a production compiler derives from
//! shape/alias analysis), and a native Rust reference implementation used
//! to validate both the IR and every hardware run.
//!
//! | Kernel | Domain | Pipeline (paper Table 2) |
//! |---|---|---|
//! | [`kmeans`] | machine learning | P-S |
//! | [`hash_index`] | database | S-P-S |
//! | [`ks`] | graph partitioning | S-P-S |
//! | [`em3d`] | 3D simulation | S-P (P2: P) |
//! | [`gaussblur`] | image processing | S-P (P2: P) |
//!
//! [`MemoryModel`]: cgpa_analysis::MemoryModel

pub mod em3d;
pub mod gaussblur;
pub mod hash_index;
pub mod kmeans;
pub mod ks;

use cgpa_analysis::MemoryModel;
use cgpa_ir::Function;
use cgpa_sim::interp::{run_function, InterpError, NoHooks};
use cgpa_sim::{SimMemory, Value};

/// A fully materialized benchmark instance: kernel IR, memory image,
/// arguments, and alias facts.
#[derive(Debug, Clone)]
pub struct BuiltKernel {
    /// Benchmark name ("em3d", "kmeans", …).
    pub name: String,
    /// Application domain (paper Table 2's "Domain" column).
    pub domain: &'static str,
    /// One-line description (paper Table 2's "Description" column).
    pub description: &'static str,
    /// The kernel function (one outer target loop).
    pub func: Function,
    /// Region/alias declarations for the PDG builder.
    pub model: MemoryModel,
    /// Simulated memory pre-loaded with the workload.
    pub mem: SimMemory,
    /// Kernel arguments.
    pub args: Vec<Value>,
    /// Target-loop trip count (used by the energy-efficiency metric).
    pub iterations: u64,
}

impl BuiltKernel {
    /// Execute the kernel functionally on a copy of the workload; returns
    /// the resulting memory image and return value. Hardware runs are
    /// compared against this.
    ///
    /// # Panics
    /// Panics if the kernel fails to interpret (a bug in the kernel
    /// definition); [`BuiltKernel::try_reference`] returns the error
    /// instead.
    #[must_use]
    pub fn reference(&self) -> (SimMemory, Option<Value>) {
        self.try_reference().expect("kernel reference execution")
    }

    /// [`BuiltKernel::reference`], returning an interpreter failure instead
    /// of panicking.
    ///
    /// # Errors
    /// Whatever the reference interpreter reports ([`InterpError`]).
    pub fn try_reference(&self) -> Result<(SimMemory, Option<Value>), InterpError> {
        let mut mem = self.mem.clone();
        let (ret, _) = run_function(&self.func, &self.args, &mut mem, 2_000_000_000, &mut NoHooks)?;
        Ok((mem, ret))
    }
}

/// All five benchmarks with their default (paper-scale-ish) parameters, in
/// Table 2 order.
#[must_use]
pub fn default_suite(seed: u64) -> Vec<BuiltKernel> {
    vec![
        kmeans::build(&kmeans::Params::default(), seed),
        hash_index::build(&hash_index::Params::default(), seed),
        ks::build(&ks::Params::default(), seed),
        em3d::build(&em3d::Params::default(), seed),
        gaussblur::build(&gaussblur::Params::default(), seed),
    ]
}
