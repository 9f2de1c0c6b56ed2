//! The three evaluation configurations of paper §4.1:
//!
//! 1. **MIPS** — the kernel runs on the MIPS soft core ([`run_mips`]).
//! 2. **LegUp** — sequential HLS: the whole kernel becomes one FSM worker
//!    with one cache port ([`Design::Sequential`]).
//! 3. **CGPA** — the coarse-grained pipeline (P1 or P2), with one cache
//!    port per worker (every other [`Design`]).
//!
//! Every hardware flow goes through [`run`], driven by a [`RunSpec`]: which
//! design, the compiler configuration, the microarchitectural tuning, an
//! optional fault plan, and whether to trace. [`run_cgpa`],
//! [`run_cgpa_tuned`], [`run_legup`] and [`run_legup_engine`] are
//! shorthands over it. Every hardware run validates the final memory image
//! and return value against the functional reference before reporting
//! numbers.

use crate::compiler::{
    CgpaCompiler, CgpaConfig, CompileError, Compiled, DegradationPolicy, DegradationRung,
    DegradedCompile,
};
use crate::profile::{Bottleneck, Profile};
use cgpa_kernels::BuiltKernel;
use cgpa_obs::{Recorder, Track};
use cgpa_pipeline::{ReplicablePlacement, StageKind};
use cgpa_rtl::area::{estimate_area, fifo_area, AreaModel, AreaReport};
use cgpa_rtl::power::{energy_efficiency, evaluate, ActivityTrace, PowerModel};
use cgpa_sim::cache::CacheConfig;
use cgpa_sim::interp::run_with_accelerator;
use cgpa_sim::mips::{run_mips as sim_run_mips, MipsConfig};
use cgpa_sim::{FaultPlan, HwConfig, HwError, HwSystem, SimEngine, SimMemory, SystemStats, Value};
use std::error::Error;
use std::fmt;

/// Result of one kernel run under one configuration.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Configuration label ("MIPS", "LegUp", "CGPA(P1)", "CGPA(P2)").
    pub config: String,
    /// Kernel cycles.
    pub cycles: u64,
    /// ALUT usage (0 for the MIPS flow — the core is not synthesized per
    /// kernel).
    pub alut: u32,
    /// Average power in mW (accelerator flows only).
    pub power_mw: f64,
    /// Energy in µJ.
    pub energy_uj: f64,
    /// Energy efficiency (loop iterations per µJ; see EXPERIMENTS.md).
    pub efficiency: f64,
    /// Pipeline shape, when applicable.
    pub shape: Option<String>,
    /// Detailed simulator statistics, when applicable.
    pub stats: Option<SystemStats>,
    /// Degradation rung the compile landed on (None when the run did not go
    /// through [`Design::Degrade`]).
    pub rung: Option<DegradationRung>,
}

/// Flow failure.
#[derive(Debug)]
pub enum FlowError {
    /// Compilation failed.
    Compile(CompileError),
    /// Simulation failed.
    Hw(HwError),
    /// Interpretation failed.
    Interp(String),
    /// The hardware result disagrees with the reference (a correctness bug).
    Mismatch(String),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Compile(e) => write!(f, "compile: {e}"),
            FlowError::Hw(e) => write!(f, "simulate: {e}"),
            FlowError::Interp(e) => write!(f, "interpret: {e}"),
            FlowError::Mismatch(e) => write!(f, "verification: {e}"),
        }
    }
}

impl Error for FlowError {}

impl From<CompileError> for FlowError {
    fn from(e: CompileError) -> Self {
        FlowError::Compile(e)
    }
}

impl From<HwError> for FlowError {
    fn from(e: HwError) -> Self {
        FlowError::Hw(e)
    }
}

/// Run the kernel on the MIPS soft-core model.
///
/// # Errors
/// [`FlowError::Interp`] on interpreter failures.
pub fn run_mips(k: &BuiltKernel) -> Result<RunResult, FlowError> {
    let mut mem = k.mem.clone();
    let run = sim_run_mips(&k.func, &k.args, &mut mem, 4_000_000_000, &MipsConfig::default())
        .map_err(|e| FlowError::Interp(e.to_string()))?;
    Ok(RunResult {
        config: "MIPS".to_string(),
        cycles: run.cycles,
        alut: 0,
        power_mw: 0.0,
        energy_uj: 0.0,
        efficiency: 0.0,
        shape: None,
        stats: None,
        rung: None,
    })
}

/// Microarchitectural knobs for ablation studies (the paper fixes these in
/// §4.1: FIFO depth 16, and discusses the memory system in Appendix B).
#[derive(Debug, Clone, Copy)]
pub struct HwTuning {
    /// FIFO depth per channel in 32-bit beats.
    pub fifo_depth_beats: usize,
    /// Cache miss latency in cycles.
    pub miss_latency: u32,
    /// D-cache lines (shrinking this below the working set makes a run
    /// memory-latency-dominated — the regime the profile-guided tuner is
    /// exercised in).
    pub cache_lines: u32,
    /// D-cache banks (ports). `None` derives one port per worker, clamped
    /// to the 8-port cache of §4.1 — the paper's configuration, and one
    /// port for the sequential design; the design-space explorer sets
    /// explicit values to trade ports for area.
    pub cache_banks: Option<u32>,
    /// Simulation engine (event-driven scheduler vs per-cycle reference).
    /// Cycle counts and statistics are identical either way; only wall-clock
    /// time differs.
    pub engine: SimEngine,
}

impl Default for HwTuning {
    fn default() -> Self {
        HwTuning {
            fifo_depth_beats: 16,
            miss_latency: CacheConfig::default().miss_latency,
            cache_lines: CacheConfig::default().lines,
            cache_banks: None,
            engine: SimEngine::default(),
        }
    }
}

/// The hardware a [`RunSpec`] simulates.
#[derive(Debug, Clone, Copy, Default)]
pub enum Design<'a> {
    /// Compile [`RunSpec::config`] here. With [`RunSpec::trace`], the
    /// compile phases and the Verilog emission are recorded too.
    #[default]
    Compile,
    /// An already-compiled pipeline (lets sweeps reuse one compile);
    /// [`RunSpec::config`] must be the configuration it was compiled with.
    Compiled(&'a Compiled),
    /// Compile through the graceful-degradation ladder and run whatever
    /// rung it lands on: a pipeline when possible, the sequential
    /// accelerator (labelled `CGPA(seq-fallback)`) as the last rung.
    /// [`RunResult::rung`] records the rung taken.
    Degrade(DegradationPolicy),
    /// LegUp-style sequential HLS: the whole kernel as one FSM worker.
    /// [`RunSpec::config`] is unused.
    Sequential,
}

/// Everything one hardware run needs.
#[derive(Debug, Clone, Default)]
pub struct RunSpec<'a> {
    /// Compiler configuration (workers, placement, partition heuristics).
    pub config: CgpaConfig,
    /// Microarchitectural knobs.
    pub tuning: HwTuning,
    /// What to simulate.
    pub design: Design<'a>,
    /// Faults to arm on the simulator. A corrupting fault that the
    /// hardware catches surfaces as [`FlowError::Hw`] wrapping
    /// [`HwError::Fault`].
    pub faults: Option<FaultPlan>,
    /// Record a structured trace (see [`Run::recorder`]). Tracing changes
    /// no result.
    pub trace: bool,
}

/// What [`run`] returns.
#[derive(Debug)]
pub struct Run {
    /// Cycles, area, power and statistics.
    pub result: RunResult,
    /// Stage/queue/memory rollup naming the limiting resource: `Some` for
    /// every pipeline run, `None` for the sequential design. Profiles are
    /// engine-independent.
    pub profile: Option<Profile>,
    /// The armed fault plan with its fired flags (`None` without faults).
    pub faults: Option<FaultPlan>,
    /// The recorder every layer wrote into, `Some` iff [`RunSpec::trace`]:
    /// process 1 is the compiler (wall-clock µs, only for
    /// [`Design::Compile`]), processes 2+ are the simulator runs (one
    /// trace-µs per simulated cycle) with per-iteration spans and FIFO
    /// occupancy counters. Export with [`Recorder::to_chrome_json`].
    pub recorder: Option<Recorder>,
}

/// Run kernel `k` as `spec` describes: compile (unless given a design),
/// simulate, verify against the functional reference, and estimate area
/// and power.
///
/// # Errors
/// See [`FlowError`]. [`FlowError::Compile`] from [`Design::Degrade`] means
/// even the sequential fallback could not be scheduled.
pub fn run(k: &BuiltKernel, spec: &RunSpec) -> Result<Run, FlowError> {
    run_with(k, spec, None)
}

/// Run the kernel as a LegUp-style sequential accelerator: one FSM worker,
/// one cache port.
///
/// # Errors
/// See [`FlowError`]. The run is verified against the functional reference.
pub fn run_legup(k: &BuiltKernel) -> Result<RunResult, FlowError> {
    run_legup_engine(k, SimEngine::default())
}

/// [`run_legup`] with an explicit simulation engine.
///
/// # Errors
/// See [`FlowError`].
pub fn run_legup_engine(k: &BuiltKernel, engine: SimEngine) -> Result<RunResult, FlowError> {
    let tuning = HwTuning { engine, ..HwTuning::default() };
    run(k, &RunSpec { tuning, design: Design::Sequential, ..RunSpec::default() }).map(|r| r.result)
}

/// Run the kernel as a CGPA pipelined accelerator.
///
/// # Errors
/// See [`FlowError`]. The run is verified against the functional reference.
pub fn run_cgpa(k: &BuiltKernel, config: CgpaConfig) -> Result<RunResult, FlowError> {
    run_cgpa_tuned(k, config, HwTuning::default())
}

/// [`run_cgpa`] with explicit microarchitectural knobs.
///
/// # Errors
/// See [`FlowError`].
pub fn run_cgpa_tuned(
    k: &BuiltKernel,
    config: CgpaConfig,
    tuning: HwTuning,
) -> Result<RunResult, FlowError> {
    run(k, &RunSpec { config, tuning, ..RunSpec::default() }).map(|r| r.result)
}

/// [`run`], verified against `reference` when given (callers that verify
/// several runs of one kernel compute the reference once).
pub(crate) fn run_with(
    k: &BuiltKernel,
    spec: &RunSpec,
    reference: Option<&Reference>,
) -> Result<Run, FlowError> {
    let recorder = spec.trace.then(Recorder::new);
    let mut config = spec.config;
    let mut rung = None;
    let owned: Compiled;
    let compiled = match spec.design {
        Design::Sequential => return run_sequential(k, spec, recorder, reference, "LegUp"),
        Design::Compiled(c) => c,
        Design::Compile => {
            let compiler = CgpaCompiler::new(config);
            owned = match &recorder {
                Some(rec) => {
                    rec.name_process(1, format!("compile {}", k.name));
                    rec.name_thread(1, 1, "compiler");
                    let track = Track { rec: rec.clone(), pid: 1, tid: 1 };
                    let c = compiler.compile_inner(&k.func, &k.model, Some(&track))?;
                    // Emit (and discard) the Verilog so the backend's span
                    // shows up on the compile track.
                    let _ = compiler.emit_verilog_inner(&c, Some(&track));
                    c
                }
                None => compiler.compile(&k.func, &k.model)?,
            };
            &owned
        }
        Design::Degrade(policy) => {
            match CgpaCompiler::new(config).compile_degraded(&k.func, &k.model, policy)? {
                DegradedCompile::Pipeline { compiled, rung: landed, .. } => {
                    config.placement = landed.placement().unwrap_or(config.placement);
                    rung = Some(landed);
                    owned = *compiled;
                    &owned
                }
                DegradedCompile::Sequential { .. } => {
                    let mut run =
                        run_sequential(k, spec, recorder, reference, "CGPA(seq-fallback)")?;
                    run.result.rung = Some(DegradationRung::Sequential);
                    return Ok(run);
                }
            }
        }
    };

    // Area: one instance per sequential stage, `workers` instances of the
    // parallel stage (in stats order), each with its own cache port (paper
    // §3.1: dedicated memory ports), plus FIFO channel control.
    let pm = &compiled.pipeline;
    let amodel = AreaModel::default();
    let mut worker_areas: Vec<AreaReport> = Vec::new();
    for task in &pm.tasks {
        let (f, fsm) = (&pm.module.funcs[task.func_index], &compiled.fsms[task.func_index]);
        let a = estimate_area(&amodel, f, fsm);
        let count = if task.kind == StageKind::Parallel { pm.workers } else { 1 };
        worker_areas.extend((0..count).map(|_| a.clone()));
    }
    let channels: u32 = pm.queues.iter().map(|q| pm.module.queue(q.queue).channels).sum();
    let hw = hw_config(spec.tuning, worker_areas.len() as u32);
    let mut mem = k.mem.clone();
    let mut captured: Option<(SystemStats, Option<FaultPlan>)> = None;
    let mut hw_err: Option<HwError> = None;
    // Each fork gets its own trace process so a multi-invocation parent
    // cannot interleave two runs' cycle timelines on one track.
    let mut forks: u32 = 0;
    let (ret, _) = run_with_accelerator(
        &pm.parent,
        &k.args,
        &mut mem,
        4_000_000_000,
        &mut |_loop_id: u32, live_ins: &[Value], mem: &mut SimMemory| {
            let mut sys = HwSystem::for_pipeline(pm, live_ins, hw);
            forks += 1;
            match simulate(&mut sys, mem, spec, recorder.as_ref(), 1 + forks) {
                Ok(stats) => {
                    captured = Some((stats, sys.fault_plan().cloned()));
                    Ok(sys.liveouts().to_vec())
                }
                Err(e) => {
                    hw_err = Some(e.clone());
                    Err(e.to_string())
                }
            }
        },
    )
    .map_err(|e| match hw_err.take() {
        Some(h) => FlowError::Hw(h),
        None => FlowError::Interp(e.to_string()),
    })?;
    let (stats, faults) =
        captured.ok_or_else(|| FlowError::Interp("fork never executed".to_string()))?;
    verify_memory(k, &mem, ret, reference)?;

    let label = match config.placement {
        ReplicablePlacement::Pipelined => "CGPA(P1)",
        ReplicablePlacement::Replicated => "CGPA(P2)",
    };
    let profile =
        Profile::from_stats(&k.name, label, compiled, &stats, spec.tuning.fifo_depth_beats);
    let mut result = finish(k, label, stats, worker_areas, fifo_area(&amodel, channels), hw);
    result.shape = Some(compiled.shape.clone());
    result.rung = rung;
    Ok(Run { result, profile: Some(profile), faults, recorder })
}

/// The sequential design: the whole kernel as one FSM worker.
fn run_sequential(
    k: &BuiltKernel,
    spec: &RunSpec,
    recorder: Option<Recorder>,
    reference: Option<&Reference>,
    label: &str,
) -> Result<Run, FlowError> {
    let hw = hw_config(spec.tuning, 1);
    let mut mem = k.mem.clone();
    let mut sys = HwSystem::for_single(&k.func, &k.args, hw);
    let stats = simulate(&mut sys, &mut mem, spec, recorder.as_ref(), 2)?;
    verify_memory(k, &mem, sys.ret_value(), reference)?;
    let area = estimate_area(&AreaModel::default(), &k.func, &sys.fsms()[0]);
    let result = finish(k, label, stats, vec![area], AreaReport::default(), hw);
    Ok(Run { result, profile: None, faults: sys.fault_plan().cloned(), recorder })
}

/// The simulator configuration `tuning` describes for `workers` workers.
/// Without explicit banks, each worker gets its own cache port, up to the
/// 8-port cache of §4.1.
fn hw_config(tuning: HwTuning, workers: u32) -> HwConfig {
    HwConfig {
        cache: CacheConfig {
            banks: tuning.cache_banks.map_or_else(|| workers.clamp(1, 8), |b| b.max(1)),
            miss_latency: tuning.miss_latency,
            lines: tuning.cache_lines,
            ..CacheConfig::default()
        },
        fifo_depth_beats: tuning.fifo_depth_beats,
        engine: tuning.engine,
        ..HwConfig::default()
    }
}

/// Arm `sys` with `spec`'s fault plan and (when tracing) trace process
/// `pid`, then run it.
fn simulate(
    sys: &mut HwSystem,
    mem: &mut SimMemory,
    spec: &RunSpec,
    recorder: Option<&Recorder>,
    pid: u32,
) -> Result<SystemStats, HwError> {
    if let Some(rec) = recorder {
        sys.attach_obs(rec, pid);
    }
    if let Some(plan) = &spec.faults {
        sys.inject_faults(plan.clone());
    }
    sys.run(mem)
}

/// Area → activity → power → [`RunResult`], from one area report per
/// worker instance (in stats order) plus the FIFO channel control.
fn finish(
    k: &BuiltKernel,
    label: &str,
    stats: SystemStats,
    workers: Vec<AreaReport>,
    fifo: AreaReport,
    hw: HwConfig,
) -> RunResult {
    let alut = workers.iter().map(AreaReport::total).sum::<u32>() + fifo.total();
    let trace = ActivityTrace {
        cycles: stats.cycles,
        workers: workers.into_iter().zip(stats.workers.iter().map(|w| w.busy)).collect(),
        fifo_beats: stats.fifo_beats,
        cache_accesses: stats.cache.accesses,
        cache_ports: hw.cache.banks,
        fifo_area: fifo,
    };
    let power = evaluate(&PowerModel::default(), &trace);
    RunResult {
        config: label.to_string(),
        cycles: stats.cycles,
        alut,
        power_mw: power.power_mw,
        energy_uj: power.energy_uj,
        efficiency: energy_efficiency(k.iterations, &power),
        shape: None,
        stats: Some(stats),
        rung: None,
    }
}

/// Marginal-speedup threshold of [`run_cgpa_tuned_auto`]: stop when a step
/// improves cycles by less than 2%.
const TUNE_MIN_GAIN: f64 = 0.02;
/// Iteration cap for the tuner (each step doubles one knob, so 6 steps
/// already cover a 64× range).
const TUNE_MAX_ITERS: usize = 6;
/// Parallel-stage worker ceiling (power of two; 8 cache ports of §4.1 plus
/// one doubling of headroom).
const TUNE_MAX_WORKERS: u32 = 16;
/// FIFO depth ceiling in beats per channel.
const TUNE_MAX_FIFO_DEPTH: usize = 256;

/// One compile→run→profile iteration of the tuner.
#[derive(Debug, Clone)]
pub struct TuneStep {
    /// Parallel-stage worker count of this step.
    pub workers: u32,
    /// FIFO depth of this step.
    pub fifo_depth_beats: usize,
    /// Measured kernel cycles.
    pub cycles: u64,
    /// This step's bottleneck verdict.
    pub bottleneck: String,
    /// Whether the step improved on the best-so-far by at least the
    /// threshold (the first step is always accepted as the baseline).
    pub accepted: bool,
}

/// The tuner's final configuration and its search trace.
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    /// Best run found.
    pub best: RunResult,
    /// The best run's profile.
    pub profile: Profile,
    /// Cycles of the starting configuration (the un-tuned baseline).
    pub baseline_cycles: u64,
    /// Every step tried, in order.
    pub steps: Vec<TuneStep>,
}

impl TuneOutcome {
    /// Baseline cycles over best cycles (1.0 = the tuner found nothing).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.baseline_cycles as f64 / self.best.cycles as f64
    }
}

/// The knob adjustment a profile's bottleneck verdict calls for: double
/// parallel-stage workers for a saturated parallel stage or a latency-bound
/// memory port, double FIFO depth for a full queue. `None` means no knob
/// addresses the verdict — a saturated sequential stage, conflict-bound
/// memory, a knob at its cap, or (the degenerate case) a verdict naming a
/// stage this profile does not carry (stats from another compile, a
/// deserialized profile) — and the tuner stops with its best-so-far outcome
/// instead of panicking.
fn next_tune_step(
    profile: &Profile,
    mut config: CgpaConfig,
    mut tuning: HwTuning,
) -> Option<(CgpaConfig, HwTuning)> {
    let has_parallel_stage = profile.stages.iter().any(|s| s.parallel);
    match &profile.bottleneck {
        Bottleneck::QueueFull { .. } if tuning.fifo_depth_beats < TUNE_MAX_FIFO_DEPTH => {
            tuning.fifo_depth_beats *= 2;
            Some((config, tuning))
        }
        Bottleneck::Stage { stage, .. } => match profile.stage(*stage) {
            Some(s) if s.parallel && config.workers < TUNE_MAX_WORKERS => {
                config.workers *= 2; // stays a power of two
                Some((config, tuning))
            }
            // A sequential stage cannot be scaled; an absent stage cannot
            // even be classified.
            _ => None,
        },
        Bottleneck::MemoryPort { latency_bound: true, .. }
            if has_parallel_stage && config.workers < TUNE_MAX_WORKERS =>
        {
            // More workers = more ports = more misses in flight.
            config.workers *= 2;
            Some((config, tuning))
        }
        _ => None, // conflict-bound memory, or every knob at its cap
    }
}

/// Profile-guided auto-tuner: iterate compile→run→profile, doubling the
/// knob the bottleneck verdict indicts until a step improves cycles by
/// less than 2% or the bottleneck is one no knob addresses.
///
/// # Errors
/// See [`FlowError`]. Every candidate run is verified in full against the
/// functional reference, which is computed once per tuning.
pub fn run_cgpa_tuned_auto(
    k: &BuiltKernel,
    mut config: CgpaConfig,
    mut tuning: HwTuning,
) -> Result<TuneOutcome, FlowError> {
    let reference = reference(k)?;
    let mut steps: Vec<TuneStep> = Vec::new();
    let mut best: Option<(RunResult, Profile)> = None;
    let mut baseline_cycles = 0u64;
    for _ in 0..TUNE_MAX_ITERS {
        let run = run_with(k, &RunSpec { config, tuning, ..RunSpec::default() }, Some(&reference))?;
        let profile = run.profile.expect("pipeline runs are profiled");
        let cycles = run.result.cycles;
        let accepted = match &best {
            None => {
                baseline_cycles = cycles;
                true
            }
            Some((b, _)) => (cycles as f64) < b.cycles as f64 * (1.0 - TUNE_MIN_GAIN),
        };
        steps.push(TuneStep {
            workers: config.workers,
            fifo_depth_beats: tuning.fifo_depth_beats,
            cycles,
            bottleneck: profile.bottleneck_summary(),
            accepted,
        });
        if !accepted {
            break; // marginal speedup below threshold: stop climbing
        }
        let next = next_tune_step(&profile, config, tuning);
        best = Some((run.result, profile));
        match next {
            Some((c, t)) => {
                config = c;
                tuning = t;
            }
            None => break, // no knob addresses this bottleneck
        }
    }
    let (best, profile) =
        best.ok_or_else(|| FlowError::Interp("tuner completed no iteration".to_string()))?;
    Ok(TuneOutcome { best, profile, baseline_cycles, steps })
}

/// Explore the design-space lattice for one kernel: compile each distinct
/// configuration once (memoized through `cache`), simulate every lattice
/// point concurrently, and report the (cycles, ALUTs, power) Pareto
/// frontier plus a recommended point under `area_budget_alut`. Partition
/// heuristics are the defaults; `env` supplies miss latency, cache lines
/// when the lattice does not sweep them, and the simulation engine. Points
/// with invalid cache geometry are recorded in
/// [`DseReport::skipped`](crate::dse::DseReport::skipped). See
/// [`crate::dse`] for the building blocks.
///
/// # Errors
/// [`FlowError`] when *no* lattice point is feasible, and
/// [`FlowError::Interp`] when the reference cannot be computed; per-point
/// failures are recorded in the report.
pub fn run_cgpa_dse(
    k: &BuiltKernel,
    lattice: &crate::dse::DseLattice,
    env: HwTuning,
    area_budget_alut: u32,
    cache: &crate::dse::CompileCache,
) -> Result<crate::dse::DseReport, FlowError> {
    crate::dse::explore(k, lattice, env, area_budget_alut, cache)
}

/// A kernel's functional reference: final memory image and return value.
pub(crate) type Reference = (SimMemory, Option<Value>);

/// Compute `k`'s reference; an interpreter failure is a
/// [`FlowError::Interp`].
pub(crate) fn reference(k: &BuiltKernel) -> Result<Reference, FlowError> {
    k.try_reference().map_err(|e| FlowError::Interp(format!("{} reference: {e}", k.name)))
}

/// Compare a hardware run's memory and return value against `reference`,
/// computing it when not given.
fn verify_memory(
    k: &BuiltKernel,
    mem: &SimMemory,
    ret: Option<Value>,
    reference: Option<&Reference>,
) -> Result<(), FlowError> {
    let computed;
    let (ref_mem, ref_ret) = match reference {
        Some(r) => r,
        None => {
            computed = self::reference(k)?;
            &computed
        }
    };
    if mem.read_bytes(0, mem.size()) != ref_mem.read_bytes(0, ref_mem.size()) {
        let diffs = cgpa_sim::diff_memories(mem, ref_mem, 8);
        return Err(FlowError::Mismatch(format!(
            "{}: memory state differs\n{}",
            k.name,
            cgpa_sim::render_diffs(&diffs, None)
        )));
    }
    if ret != *ref_ret {
        return Err(FlowError::Mismatch(format!(
            "{}: return value {ret:?} != {ref_ret:?}",
            k.name
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgpa_kernels::em3d;

    fn small_em3d() -> BuiltKernel {
        em3d::build(&em3d::Params::fixed(60, 60, 4, 16), 5)
    }

    #[test]
    fn all_three_flows_agree_and_rank_as_expected() {
        let k = small_em3d();
        let mips = run_mips(&k).unwrap();
        let legup = run_legup(&k).unwrap();
        let cgpa = run_cgpa(&k, CgpaConfig::default()).unwrap();
        assert!(mips.cycles > legup.cycles, "specialization wins: {mips:?} vs {legup:?}");
        assert!(legup.cycles > cgpa.cycles, "pipelining wins: {} vs {}", legup.cycles, cgpa.cycles);
        assert_eq!(cgpa.shape.as_deref(), Some("S-P"));
        // CGPA area exceeds LegUp (4 workers + FIFOs).
        assert!(cgpa.alut > 2 * legup.alut);
        // Power and energy populated.
        assert!(cgpa.power_mw > legup.power_mw);
        assert!(legup.energy_uj > 0.0);
    }

    #[test]
    fn profile_is_engine_independent_and_names_a_bottleneck() {
        let k = small_em3d();
        let profiled = |engine| {
            let tuning = HwTuning { engine, ..HwTuning::default() };
            let run = run(&k, &RunSpec { tuning, ..RunSpec::default() }).unwrap();
            (run.result, run.profile.expect("pipeline runs are profiled"))
        };
        let (ev, ev_profile) = profiled(SimEngine::EventDriven);
        let (_, rf_profile) = profiled(SimEngine::PerCycle);
        assert_eq!(ev_profile, rf_profile);
        assert!(!ev_profile.stages.is_empty());
        for s in &ev_profile.stages {
            assert!((0.0..=1.0).contains(&s.utilization), "{s:?}");
        }
        assert!(!ev_profile.bottleneck_summary().is_empty());
        // Every worker-cycle is attributed to exactly one bucket.
        let stats = ev.stats.as_ref().unwrap();
        for w in &stats.workers {
            assert_eq!(w.total(), stats.cycles);
        }
    }

    #[test]
    fn tuner_improves_a_memory_latency_dominated_config() {
        let k = small_em3d();
        // Two cache lines + 400-cycle misses: every access essentially goes
        // to DRAM, so the profile indicts the memory port and the tuner
        // scales workers to get more misses in flight.
        let himem = HwTuning { miss_latency: 400, cache_lines: 2, ..HwTuning::default() };
        let base = CgpaConfig { workers: 2, ..CgpaConfig::default() };
        let outcome = run_cgpa_tuned_auto(&k, base, himem).unwrap();
        assert!(
            outcome.best.cycles < outcome.baseline_cycles,
            "tuner found nothing: baseline {} vs best {}",
            outcome.baseline_cycles,
            outcome.best.cycles
        );
        assert!(outcome.steps.len() >= 2);
        assert!(outcome.speedup() > 1.0);
    }

    /// A hand-built profile whose bottleneck verdict names stage
    /// `bottleneck_stage`, while the profile itself only carries stages 0
    /// and 1 (1 parallel) — the shape of a profile deserialized from disk
    /// or assembled against a different compile.
    fn profile_with_bottleneck_stage(bottleneck_stage: usize) -> Profile {
        use crate::profile::{MemoryProfile, StageProfile};
        let stage = |idx: usize, parallel: bool| StageProfile {
            stage: idx,
            name: format!("k_stage{idx}"),
            parallel,
            workers: if parallel { 4 } else { 1 },
            busy: 900,
            stall_mem_read: 0,
            stall_mem_write: 0,
            stall_push: 0,
            stall_pop: 0,
            idle: 100,
            utilization: 0.9,
        };
        Profile {
            kernel: "k".to_string(),
            config: "CGPA(P1)".to_string(),
            shape: "S-P".to_string(),
            workers: 4,
            fifo_depth_beats: 16,
            cycles: 1000,
            stages: vec![stage(0, false), stage(1, true)],
            queues: Vec::new(),
            memory: MemoryProfile {
                ports: 5,
                accesses: 100,
                hits: 90,
                misses: 10,
                conflict_cycles: 0,
                read_stall_cycles: 0,
                write_stall_cycles: 0,
                stall_fraction: 0.0,
            },
            bottleneck: Bottleneck::Stage { stage: bottleneck_stage, utilization: 0.99 },
        }
    }

    #[test]
    fn tune_step_stops_when_the_bottleneck_names_an_absent_stage() {
        // Regression: this used to panic on `.expect("stage")` inside the
        // tuner loop. An out-of-band verdict must stop the climb instead.
        let p = profile_with_bottleneck_stage(7);
        assert!(p.stage(7).is_none());
        assert!(next_tune_step(&p, CgpaConfig::default(), HwTuning::default()).is_none());
        // The summary degrades to an index-only description, same as PR 4's
        // bottleneck_summary fix.
        assert!(p.bottleneck_summary().contains("not in profile"));
    }

    #[test]
    fn tune_step_scales_a_saturated_parallel_stage() {
        let p = profile_with_bottleneck_stage(1); // the parallel stage
        let (c, t) = next_tune_step(&p, CgpaConfig::default(), HwTuning::default()).unwrap();
        assert_eq!(c.workers, CgpaConfig::default().workers * 2);
        assert_eq!(t.fifo_depth_beats, HwTuning::default().fifo_depth_beats);
        // A sequential bottleneck stage has no knob.
        let p = profile_with_bottleneck_stage(0);
        assert!(next_tune_step(&p, CgpaConfig::default(), HwTuning::default()).is_none());
    }

    #[test]
    fn explicit_cache_banks_reach_the_simulated_cache() {
        let k = small_em3d();
        // One bank serializes every access; the default (one port per
        // worker) overlaps them. Fewer ports can never be faster.
        let one_bank = HwTuning { cache_banks: Some(1), ..HwTuning::default() };
        let narrow = run_cgpa_tuned(&k, CgpaConfig::default(), one_bank).unwrap();
        let wide = run_cgpa(&k, CgpaConfig::default()).unwrap();
        assert!(narrow.cycles >= wide.cycles, "{} < {}", narrow.cycles, wide.cycles);
        // A zero from a sweep is clamped by the cache model, not a panic.
        let zero = HwTuning { cache_banks: Some(0), ..HwTuning::default() };
        let r = run_cgpa_tuned(&k, CgpaConfig::default(), zero).unwrap();
        assert!(r.cycles >= wide.cycles);
    }

    #[test]
    fn p2_runs_and_is_labelled() {
        let k = small_em3d();
        let cfg = CgpaConfig {
            placement: cgpa_pipeline::ReplicablePlacement::Replicated,
            ..CgpaConfig::default()
        };
        let r = run_cgpa(&k, cfg).unwrap();
        assert_eq!(r.config, "CGPA(P2)");
        assert_eq!(r.shape.as_deref(), Some("P"));
    }
}
