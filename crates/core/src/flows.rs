//! The three evaluation configurations of paper §4.1:
//!
//! 1. **MIPS** — the kernel runs on the MIPS soft core.
//! 2. **LegUp** — sequential HLS: the whole kernel becomes one FSM worker
//!    with one cache port.
//! 3. **CGPA** — the coarse-grained pipeline (P1 or P2), with one cache
//!    port per worker.
//!
//! Every hardware flow validates the final memory image and return value
//! against the functional reference before reporting numbers.

use crate::compiler::{
    CgpaCompiler, CgpaConfig, CompileError, Compiled, DegradationPolicy, DegradationRung,
    DegradedCompile,
};
use crate::profile::{Bottleneck, Profile};
use cgpa_kernels::BuiltKernel;
use cgpa_obs::{Recorder, Track};
use cgpa_pipeline::StageKind;
use cgpa_rtl::area::{estimate_area, fifo_area, AreaModel, AreaReport};
use cgpa_rtl::power::{energy_efficiency, evaluate, ActivityTrace, PowerModel, PowerReport};
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
    /// through [`run_cgpa_degraded`]).
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

/// Run the kernel as a LegUp-style sequential accelerator: one FSM worker,
/// one cache port.
///
/// # Errors
/// See [`FlowError`]. The run is verified against the functional reference.
pub fn run_legup(k: &BuiltKernel) -> Result<RunResult, FlowError> {
    run_legup_engine(k, SimEngine::default())
}

/// [`run_legup`] with an explicit simulation engine (the event-driven
/// scheduler or the per-cycle reference stepper). Used by the differential
/// test matrix; results must be identical either way.
///
/// # Errors
/// See [`FlowError`].
pub fn run_legup_engine(k: &BuiltKernel, engine: SimEngine) -> Result<RunResult, FlowError> {
    let cfg = HwConfig {
        cache: CacheConfig { banks: 1, ..CacheConfig::default() },
        engine,
        ..HwConfig::default()
    };
    let mut mem = k.mem.clone();
    let mut sys = HwSystem::for_single(&k.func, &k.args, cfg);
    let stats = sys.run(&mut mem)?;
    verify_memory(k, &mem, sys.ret_value(), None)?;

    let amodel = AreaModel::default();
    let area = estimate_area(&amodel, &k.func, &sys.fsms()[0]);
    let pmodel = PowerModel::default();
    let trace = ActivityTrace {
        cycles: stats.cycles,
        workers: vec![(area.clone(), stats.workers[0].busy)],
        fifo_beats: 0,
        cache_accesses: stats.cache.accesses,
        cache_ports: 1,
        fifo_area: AreaReport::default(),
    };
    let power = evaluate(&pmodel, &trace);
    Ok(RunResult {
        config: "LegUp".to_string(),
        cycles: stats.cycles,
        alut: area.total(),
        power_mw: power.power_mw,
        energy_uj: power.energy_uj,
        efficiency: energy_efficiency(k.iterations, &power),
        shape: None,
        stats: Some(stats),
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
    /// to the 8-port cache of §4.1 — the paper's configuration; the
    /// design-space explorer sets explicit values to trade ports for area.
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
    let compiler = CgpaCompiler::new(config);
    let compiled = compiler.compile(&k.func, &k.model)?;
    run_compiled_tuned(k, &compiled, config, tuning)
}

/// Run an already-compiled pipeline with explicit microarchitectural knobs
/// (lets callers reuse one compile across sweeps).
///
/// # Errors
/// See [`FlowError`].
pub fn run_compiled_tuned(
    k: &BuiltKernel,
    compiled: &Compiled,
    config: CgpaConfig,
    tuning: HwTuning,
) -> Result<RunResult, FlowError> {
    run_compiled_impl(k, compiled, config, tuning, None, None, None).map(|(r, _)| r)
}

/// Run `compiled` and verify it against `reference`, or against a
/// reference computed here when none is given. Callers that verify several
/// runs of one kernel compute the reference once and pass it to each.
pub(crate) fn run_compiled_impl(
    k: &BuiltKernel,
    compiled: &Compiled,
    config: CgpaConfig,
    tuning: HwTuning,
    fault: Option<FaultPlan>,
    obs: Option<&Recorder>,
    reference: Option<&Reference>,
) -> Result<(RunResult, Option<FaultPlan>), FlowError> {
    // One cache port per worker (paper §3.1: dedicated memory ports), up to
    // the 8-port cache of §4.1.
    let worker_count: u32 = compiled
        .pipeline
        .tasks
        .iter()
        .map(|t| match t.kind {
            StageKind::Sequential => 1,
            StageKind::Parallel => compiled.pipeline.workers,
        })
        .sum();
    let banks = tuning.cache_banks.map_or_else(|| worker_count.clamp(1, 8), |b| b.max(1));
    let hw_cfg = HwConfig {
        cache: CacheConfig {
            banks,
            miss_latency: tuning.miss_latency,
            lines: tuning.cache_lines,
            ..CacheConfig::default()
        },
        fifo_depth_beats: tuning.fifo_depth_beats,
        engine: tuning.engine,
        ..HwConfig::default()
    };

    let mut mem = k.mem.clone();
    let mut captured: Option<SystemStats> = None;
    let mut hw_err: Option<HwError> = None;
    let mut plan_out: Option<FaultPlan> = None;
    let pm = &compiled.pipeline;
    // Each fork gets its own trace process so a multi-invocation parent
    // cannot interleave two runs' cycle timelines on one track.
    let mut fork_index: u32 = 0;
    let (ret, _) = run_with_accelerator(
        &pm.parent,
        &k.args,
        &mut mem,
        4_000_000_000,
        &mut |_loop_id: u32, live_ins: &[Value], mem: &mut SimMemory| {
            let mut sys = HwSystem::for_pipeline(pm, live_ins, hw_cfg);
            if let Some(rec) = obs {
                sys.attach_obs(rec, 2 + fork_index);
                fork_index += 1;
            }
            if let Some(plan) = &fault {
                sys.inject_faults(plan.clone());
            }
            match sys.run(mem) {
                Ok(stats) => {
                    captured = Some(stats);
                    plan_out = sys.fault_plan().cloned();
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
    let stats = captured.ok_or_else(|| FlowError::Interp("fork never executed".to_string()))?;
    verify_memory(k, &mem, ret, reference)?;

    // Area: one instance per sequential stage, `workers` instances of the
    // parallel stage, FIFO channel control.
    let amodel = AreaModel::default();
    let mut worker_areas: Vec<AreaReport> = Vec::new();
    for task in &pm.tasks {
        let f = &pm.module.funcs[task.func_index];
        let fsm = &compiled.fsms[task.func_index];
        let a = estimate_area(&amodel, f, fsm);
        let count = match task.kind {
            StageKind::Sequential => 1,
            StageKind::Parallel => pm.workers,
        };
        for _ in 0..count {
            worker_areas.push(a.clone());
        }
    }
    let channels: u32 = pm.queues.iter().map(|q| pm.module.queue(q.queue).channels).sum();
    let fifo = fifo_area(&amodel, channels);
    let total_alut: u32 = worker_areas.iter().map(AreaReport::total).sum::<u32>() + fifo.total();

    let pmodel = PowerModel::default();
    let trace = ActivityTrace {
        cycles: stats.cycles,
        workers: worker_areas.iter().cloned().zip(stats.workers.iter().map(|w| w.busy)).collect(),
        fifo_beats: stats.fifo_beats,
        cache_accesses: stats.cache.accesses,
        cache_ports: banks,
        fifo_area: fifo,
    };
    let power: PowerReport = evaluate(&pmodel, &trace);
    let label = match config.placement {
        cgpa_pipeline::ReplicablePlacement::Pipelined => "CGPA(P1)",
        cgpa_pipeline::ReplicablePlacement::Replicated => "CGPA(P2)",
    };
    let result = RunResult {
        config: label.to_string(),
        cycles: stats.cycles,
        alut: total_alut,
        power_mw: power.power_mw,
        energy_uj: power.energy_uj,
        efficiency: energy_efficiency(k.iterations, &power),
        shape: Some(compiled.shape.clone()),
        stats: Some(stats),
        rung: None,
    };
    Ok((result, plan_out))
}

/// Run the kernel with a [`FaultPlan`] armed on the pipeline simulator.
///
/// On success the run was bit-exact against the functional reference despite
/// the plan (timing-only faults, or faults that never fired); the returned
/// plan records which faults actually fired. A corrupting fault that the
/// hardware catches surfaces as [`FlowError::Hw`] wrapping
/// [`HwError::Fault`].
///
/// # Errors
/// See [`FlowError`].
pub fn run_cgpa_with_faults(
    k: &BuiltKernel,
    config: CgpaConfig,
    plan: FaultPlan,
) -> Result<(RunResult, FaultPlan), FlowError> {
    run_cgpa_with_faults_tuned(k, config, plan, HwTuning::default())
}

/// [`run_cgpa_with_faults`] with explicit microarchitectural knobs — in
/// particular the simulation engine, for the engine-differential fault
/// matrix.
///
/// # Errors
/// See [`FlowError`].
pub fn run_cgpa_with_faults_tuned(
    k: &BuiltKernel,
    config: CgpaConfig,
    plan: FaultPlan,
    tuning: HwTuning,
) -> Result<(RunResult, FaultPlan), FlowError> {
    let compiler = CgpaCompiler::new(config);
    let compiled = compiler.compile(&k.func, &k.model)?;
    let (r, plan_out) =
        run_compiled_impl(k, &compiled, config, tuning, Some(plan.clone()), None, None)?;
    Ok((r, plan_out.unwrap_or(plan)))
}

/// A pipeline run paired with the recorder holding its end-to-end trace
/// (compile-phase spans, Verilog emission spans, per-iteration pipeline
/// spans, FIFO occupancy counters). Export with
/// [`Recorder::to_chrome_json`] and load the file in Perfetto.
#[derive(Debug)]
pub struct TracedRun {
    /// The run (cycles, area, power, stats) — identical to the untraced
    /// flow's result.
    pub result: RunResult,
    /// The recorder every layer wrote into: trace process 1 is the
    /// compiler (wall-clock µs), processes 2+ are the simulator forks
    /// (one trace-µs per simulated cycle).
    pub recorder: Recorder,
}

/// [`run_cgpa_tuned`] with end-to-end structured tracing: the compile
/// pipeline records one span per phase (alias → PDG → SCC condensation →
/// classification → partition → transform → FSM scheduling → Verilog),
/// and the simulator records per-iteration spans per worker plus FIFO
/// occupancy counter tracks. Tracing does not change the configured
/// engine — both engines emit bit-identical simulator streams.
///
/// # Errors
/// See [`FlowError`].
pub fn run_cgpa_traced(
    k: &BuiltKernel,
    config: CgpaConfig,
    tuning: HwTuning,
) -> Result<TracedRun, FlowError> {
    let recorder = Recorder::new();
    recorder.name_process(1, format!("compile {}", k.name));
    recorder.name_thread(1, 1, "compiler");
    let track = Track { rec: recorder.clone(), pid: 1, tid: 1 };
    let compiler = CgpaCompiler::new(config);
    let compiled = compiler.compile_inner(&k.func, &k.model, Some(&track))?;
    // Emit (and discard) the Verilog so the backend's span shows up on the
    // compile track; callers wanting the text can re-emit from `compiled`.
    let _ = compiler.emit_verilog_inner(&compiled, Some(&track));
    let (result, _) = run_compiled_impl(k, &compiled, config, tuning, None, Some(&recorder), None)?;
    Ok(TracedRun { result, recorder })
}

/// A pipeline run paired with its bottleneck profile.
#[derive(Debug, Clone)]
pub struct ProfiledRun {
    /// The run (cycles, area, power, stats).
    pub result: RunResult,
    /// Stage/queue/memory rollup naming the limiting resource.
    pub profile: Profile,
}

/// [`run_cgpa_tuned`] plus a [`Profile`] built from the run's statistics.
///
/// Profiles are engine-independent: both simulation engines fill the stall
/// buckets identically, so the same profile comes back either way.
///
/// # Errors
/// See [`FlowError`].
pub fn run_cgpa_profiled(
    k: &BuiltKernel,
    config: CgpaConfig,
    tuning: HwTuning,
) -> Result<ProfiledRun, FlowError> {
    run_profiled(k, config, tuning, None)
}

/// [`run_cgpa_profiled`] verified against `reference` when given.
fn run_profiled(
    k: &BuiltKernel,
    config: CgpaConfig,
    tuning: HwTuning,
    reference: Option<&Reference>,
) -> Result<ProfiledRun, FlowError> {
    let compiler = CgpaCompiler::new(config);
    let compiled = compiler.compile(&k.func, &k.model)?;
    let (result, _) = run_compiled_impl(k, &compiled, config, tuning, None, None, reference)?;
    let stats = result.stats.as_ref().expect("pipeline runs capture stats");
    let profile =
        Profile::from_stats(&k.name, &result.config, &compiled, stats, tuning.fifo_depth_beats);
    Ok(ProfiledRun { result, profile })
}

/// Default marginal-speedup threshold for [`run_cgpa_tuned_auto`]: stop
/// when a step improves cycles by less than 2%.
pub const TUNE_MIN_GAIN: f64 = 0.02;

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
    /// Best run found (with its profile).
    pub best: ProfiledRun,
    /// Cycles of the starting configuration (the un-tuned baseline).
    pub baseline_cycles: u64,
    /// Every step tried, in order.
    pub steps: Vec<TuneStep>,
}

impl TuneOutcome {
    /// Baseline cycles over best cycles (1.0 = the tuner found nothing).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.baseline_cycles as f64 / self.best.result.cycles as f64
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
#[must_use]
pub fn next_tune_step(
    profile: &Profile,
    config: CgpaConfig,
    tuning: HwTuning,
) -> Option<(CgpaConfig, HwTuning)> {
    let mut config = config;
    let mut tuning = tuning;
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
/// knob the bottleneck verdict indicts (see [`next_tune_step`]) until a
/// step improves cycles by less than `min_gain` (see [`TUNE_MIN_GAIN`]) or
/// the bottleneck is one no knob addresses.
///
/// # Errors
/// See [`FlowError`]. Every candidate run is verified in full against the
/// functional reference, which is computed once per tuning.
pub fn run_cgpa_tuned_auto(
    k: &BuiltKernel,
    config: CgpaConfig,
    tuning: HwTuning,
    min_gain: f64,
) -> Result<TuneOutcome, FlowError> {
    let reference = reference(k)?;
    let mut config = config;
    let mut tuning = tuning;
    let mut steps: Vec<TuneStep> = Vec::new();
    let mut best: Option<ProfiledRun> = None;
    let mut baseline_cycles = 0u64;
    for _ in 0..TUNE_MAX_ITERS {
        let run = run_profiled(k, config, tuning, Some(&reference))?;
        let cycles = run.result.cycles;
        let accepted = match &best {
            None => {
                baseline_cycles = cycles;
                true
            }
            Some(b) => (cycles as f64) < b.result.cycles as f64 * (1.0 - min_gain),
        };
        steps.push(TuneStep {
            workers: config.workers,
            fifo_depth_beats: tuning.fifo_depth_beats,
            cycles,
            bottleneck: run.profile.bottleneck_summary(),
            accepted,
        });
        if accepted {
            best = Some(run);
        } else {
            break; // marginal speedup below threshold: stop climbing
        }
        let Some(b) = &best else { break };
        match next_tune_step(&b.profile, config, tuning) {
            Some((c, t)) => {
                config = c;
                tuning = t;
            }
            None => break, // no knob addresses this bottleneck
        }
    }
    let best = best.ok_or_else(|| FlowError::Interp("tuner completed no iteration".to_string()))?;
    Ok(TuneOutcome { best, baseline_cycles, steps })
}

/// Explore the design-space lattice for one kernel: compile each distinct
/// configuration once (memoized through `cache`), simulate every lattice
/// point concurrently, and report the (cycles, ALUTs, power) Pareto
/// frontier plus a recommended point under `area_budget_alut`. Partition
/// heuristics are the defaults; `env` supplies miss latency, cache lines
/// when the lattice does not sweep them, and the simulation engine. See
/// [`crate::dse`] for the building blocks.
///
/// # Errors
/// See [`crate::dse::explore`]: per-point failures are recorded in the
/// report, an error means no point was feasible.
pub fn run_cgpa_dse(
    k: &BuiltKernel,
    lattice: &crate::dse::DseLattice,
    env: HwTuning,
    area_budget_alut: u32,
    cache: &crate::dse::CompileCache,
) -> Result<crate::dse::DseReport, FlowError> {
    crate::dse::explore(k, lattice, CgpaConfig::default(), env, area_budget_alut, cache)
}

/// Compile with the graceful-degradation ladder and run whatever rung the
/// compile lands on (paper-shaped pipeline when possible, LegUp-style
/// sequential accelerator as the last rung).
///
/// The returned [`RunResult::rung`] records the rung taken; the `config`
/// label reads `CGPA(seq-fallback)` when the sequential rung was used.
///
/// # Errors
/// [`FlowError::Compile`] when even the sequential fallback cannot be
/// scheduled; otherwise see [`FlowError`].
pub fn run_cgpa_degraded(
    k: &BuiltKernel,
    config: CgpaConfig,
    policy: DegradationPolicy,
) -> Result<RunResult, FlowError> {
    let compiler = CgpaCompiler::new(config);
    match compiler.compile_degraded(&k.func, &k.model, policy)? {
        DegradedCompile::Pipeline { compiled, rung, .. } => {
            let mut run_cfg = config;
            if let Some(p) = rung.placement() {
                run_cfg.placement = p;
            }
            let mut r = run_compiled_tuned(k, &compiled, run_cfg, HwTuning::default())?;
            r.rung = Some(rung);
            Ok(r)
        }
        DegradedCompile::Sequential { .. } => {
            let mut r = run_legup(k)?;
            r.config = "CGPA(seq-fallback)".to_string();
            r.rung = Some(DegradationRung::Sequential);
            Ok(r)
        }
    }
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
        let ev = run_cgpa_profiled(&k, CgpaConfig::default(), HwTuning::default()).unwrap();
        let rf = run_cgpa_profiled(
            &k,
            CgpaConfig::default(),
            HwTuning { engine: SimEngine::PerCycle, ..HwTuning::default() },
        )
        .unwrap();
        assert_eq!(ev.profile, rf.profile);
        assert!(!ev.profile.stages.is_empty());
        for s in &ev.profile.stages {
            assert!((0.0..=1.0).contains(&s.utilization), "{s:?}");
        }
        assert!(!ev.profile.bottleneck_summary().is_empty());
        // Every worker-cycle is attributed to exactly one bucket.
        let stats = ev.result.stats.as_ref().unwrap();
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
        let outcome = run_cgpa_tuned_auto(&k, base, himem, TUNE_MIN_GAIN).unwrap();
        assert!(
            outcome.best.result.cycles < outcome.baseline_cycles,
            "tuner found nothing: baseline {} vs best {}",
            outcome.baseline_cycles,
            outcome.best.result.cycles
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
