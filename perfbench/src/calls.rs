//! The library's flows taken apart into their public calls, each wrapped in
//! a span: the traced run uses these to time every layer separately. The
//! results must equal the flow calls' results, which the workloads check.

use cgpa::compiler::{CgpaConfig, Compiled};
use cgpa::flows::HwTuning;
use cgpa_analysis::{build_pdg, classify_sccs, Condensation, PointsTo};
use cgpa_ir::cfg::Cfg;
use cgpa_ir::dom::DomTree;
use cgpa_ir::loops::LoopInfo;
use cgpa_kernels::BuiltKernel;
use cgpa_obs::{Recorder, Span, Track};
use cgpa_pipeline::transform::TransformConfig;
use cgpa_pipeline::{partition_loop, transform_loop, PipelineModule, StageKind};
use cgpa_rtl::area::{estimate_area, fifo_area, AreaModel, AreaReport};
use cgpa_rtl::power::{evaluate, ActivityTrace, PowerModel};
use cgpa_rtl::schedule::{schedule_function, try_schedule_function};
use cgpa_sim::cache::CacheConfig;
use cgpa_sim::{run_with_accelerator, HwConfig, HwSystem, SimMemory, SystemStats, Value};
use std::cell::Cell;

/// Interpreter fuel for the parent program, as the flows set it.
const PARENT_FUEL: u64 = 4_000_000_000;

/// Span recorder for the traced run. Every span carries the id of the
/// request it belongs to; its category is the layer, the part of its name
/// before the first `.`.
pub struct Tracer {
    track: Track,
    request: Cell<u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer recording onto one track of a fresh [`Recorder`].
    #[must_use]
    pub fn new() -> Self {
        let rec = Recorder::new();
        rec.name_process(1, "perfbench");
        rec.name_thread(1, 1, "requests");
        Tracer { track: Track { rec, pid: 1, tid: 1 }, request: Cell::new(0) }
    }

    /// The underlying recorder.
    #[must_use]
    pub fn recorder(&self) -> &Recorder {
        &self.track.rec
    }

    /// Open span `name` (`layer.phase`) for the current request.
    #[must_use]
    pub fn span(&self, name: &str) -> Span {
        let layer = name.split('.').next().unwrap_or(name);
        let s = self.track.span(name, layer);
        s.arg("request", self.request.get());
        s
    }

    /// Start request `id`: its root span, under which every span of the
    /// request nests.
    #[must_use]
    pub fn request(&self, id: u64) -> Span {
        self.request.set(id);
        self.span("bench.request")
    }
}

/// What a verified hardware run produced.
#[derive(Debug, Clone)]
pub struct FlowRun {
    /// Kernel cycles.
    pub cycles: u64,
    /// Estimated ALUTs of the design.
    pub alut: u32,
    /// Simulator statistics.
    pub stats: SystemStats,
}

/// Parallel-stage instances per task: one for a sequential stage,
/// `workers` for a parallel one.
fn instances(pm: &PipelineModule, kind: StageKind) -> u32 {
    match kind {
        StageKind::Sequential => 1,
        StageKind::Parallel => pm.workers,
    }
}

/// Instructions of the transformed module: every task plus the parent.
#[must_use]
pub fn ir_insts(pm: &PipelineModule) -> usize {
    pm.module.funcs.iter().map(|f| f.insts.len()).sum::<usize>() + pm.parent.insts.len()
}

/// Worker areas (one per instance) and the FIFO area of a compiled design,
/// as the CGPA flow estimates them.
#[must_use]
pub fn design_area(compiled: &Compiled) -> (Vec<AreaReport>, AreaReport) {
    let pm = &compiled.pipeline;
    let model = AreaModel::default();
    let mut workers = Vec::new();
    for task in &pm.tasks {
        let a = estimate_area(
            &model,
            &pm.module.funcs[task.func_index],
            &compiled.fsms[task.func_index],
        );
        for _ in 0..instances(pm, task.kind) {
            workers.push(a.clone());
        }
    }
    let channels: u32 = pm.queues.iter().map(|q| pm.module.queue(q.queue).channels).sum();
    (workers, fifo_area(&model, channels))
}

/// Total ALUTs of a compiled design.
#[must_use]
pub fn design_alut(compiled: &Compiled) -> u32 {
    let (workers, fifo) = design_area(compiled);
    workers.iter().map(AreaReport::total).sum::<u32>() + fifo.total()
}

/// `CgpaCompiler::compile`, one span per phase: `core.compile` encloses
/// the analyses, partition, transform and one `rtl.schedule` per task.
///
/// # Errors
/// The first phase that fails.
pub fn compile(t: &Tracer, k: &BuiltKernel, config: CgpaConfig) -> Result<Compiled, String> {
    let (func, model) = (&k.func, &k.model);
    let _compile = t.span("core.compile");
    let cfg = Cfg::new(func);
    let dom = DomTree::dominators(func, &cfg);
    let li = LoopInfo::compute(func, &cfg, &dom);
    let target = li.single_outermost().ok_or("kernel must have one outermost loop")?;
    let pt = {
        let _s = t.span("analysis.points_to");
        PointsTo::compute(func, model)
    };
    let pdg = {
        let s = t.span("analysis.pdg");
        let pdg = build_pdg(func, &cfg, target, &pt, model);
        s.arg("edges", pdg.edges.len());
        pdg
    };
    let condensation = {
        let _s = t.span("analysis.scc");
        Condensation::compute(&pdg)
    };
    let classification = {
        let _s = t.span("analysis.classify");
        classify_sccs(func, &pdg, &condensation)
    };
    let mut pconfig = config.partition;
    pconfig.placement = config.placement;
    let plan = {
        let _s = t.span("pipeline.partition");
        partition_loop(func, &pdg, &condensation, &classification, pconfig)
            .map_err(|e| format!("partition: {e}"))?
    };
    let pipeline = {
        let s = t.span("pipeline.transform");
        let tc = TransformConfig { workers: config.workers, loop_id: 0 };
        let pm = transform_loop(func, &cfg, target, &pdg, &condensation, &plan, tc)
            .map_err(|e| format!("transform: {e}"))?;
        s.arg("insts", ir_insts(&pm));
        pm
    };
    let mut fsms = Vec::new();
    for f in &pipeline.module.funcs {
        let s = t.span("rtl.schedule");
        let fsm = try_schedule_function(f).map_err(|e| format!("schedule: {e}"))?;
        s.arg("fsm_states", fsm.states.len());
        fsms.push(fsm);
    }
    let shape = plan.shape();
    Ok(Compiled { pipeline, plan, shape, fsms, pdg, condensation, classification })
}

/// Record the statistics of one simulator run on its span.
fn annotate_run(s: &Span, stats: &SystemStats) {
    s.arg("cycles", stats.cycles);
    s.arg("worker_cycles", stats.workers.iter().map(|w| w.total()).sum::<u64>());
    s.arg("stall_mem", stats.workers.iter().map(|w| w.stall_mem()).sum::<u64>());
    s.arg("skipped", stats.skipped_cycles);
    s.arg("cache_hits", stats.cache.hits);
    s.arg("cache_accesses", stats.cache.accesses);
    s.arg("fifo_beats", stats.fifo_beats);
}

/// `HwSystem::run` in a `sim.run` span.
fn sim_run(t: &Tracer, sys: &mut HwSystem<'_>, mem: &mut SimMemory) -> Result<SystemStats, String> {
    let s = t.span("sim.run");
    let stats = sys.run(mem).map_err(|e| format!("simulate: {e}"))?;
    annotate_run(&s, &stats);
    Ok(stats)
}

/// A kernel's reference result: final memory image and return value.
pub type Reference = (SimMemory, Option<Value>);

/// Compare a run's memory image and return value with `reference`.
///
/// # Errors
/// The first difference found.
pub fn compare(
    k: &BuiltKernel,
    mem: &SimMemory,
    ret: Option<Value>,
    reference: &Reference,
) -> Result<(), String> {
    let (ref_mem, ref_ret) = reference;
    if mem.read_bytes(0, mem.size()) != ref_mem.read_bytes(0, ref_mem.size()) {
        return Err(format!("{}: memory state differs from the reference", k.name));
    }
    if ret != *ref_ret {
        return Err(format!("{}: return value {ret:?} != {ref_ret:?}", k.name));
    }
    Ok(())
}

/// [`compare`] in a `core.verify` span; the reference is computed inside
/// the span unless given.
///
/// # Errors
/// The first difference found.
pub fn verify(
    t: &Tracer,
    k: &BuiltKernel,
    mem: &SimMemory,
    ret: Option<Value>,
    reference: Option<&Reference>,
) -> Result<(), String> {
    let _s = t.span("core.verify");
    match reference {
        Some(r) => compare(k, mem, ret, r),
        None => compare(k, mem, ret, &k.reference()),
    }
}

/// `run_compiled_tuned`: the parent program under `run_with_accelerator`
/// with `HwSystem::run` nested in its callback, then verification, then
/// the area and power estimate.
///
/// # Errors
/// A simulator, interpreter or verification failure.
pub fn run_compiled(
    t: &Tracer,
    k: &BuiltKernel,
    compiled: &Compiled,
    tuning: HwTuning,
) -> Result<FlowRun, String> {
    let pm = &compiled.pipeline;
    let worker_count: u32 = pm.tasks.iter().map(|task| instances(pm, task.kind)).sum();
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
    let ret = {
        let _s = t.span("sim.run_with_accelerator");
        run_with_accelerator(
            &pm.parent,
            &k.args,
            &mut mem,
            PARENT_FUEL,
            &mut |_loop_id: u32, live_ins: &[Value], mem: &mut SimMemory| {
                let mut sys = HwSystem::for_pipeline(pm, live_ins, hw_cfg);
                captured = Some(sim_run(t, &mut sys, mem)?);
                Ok(sys.liveouts().to_vec())
            },
        )
        .map_err(|e| format!("interpret: {e}"))?
        .0
    };
    let stats = captured.ok_or("the accelerator was never forked")?;
    verify(t, k, &mem, ret, None)?;
    let _s = t.span("rtl.area_power");
    let (workers, fifo) = design_area(compiled);
    let alut = workers.iter().map(AreaReport::total).sum::<u32>() + fifo.total();
    let activity = ActivityTrace {
        cycles: stats.cycles,
        workers: workers.into_iter().zip(stats.workers.iter().map(|w| w.busy)).collect(),
        fifo_beats: stats.fifo_beats,
        cache_accesses: stats.cache.accesses,
        cache_ports: banks,
        fifo_area: fifo,
    };
    std::hint::black_box(evaluate(&PowerModel::default(), &activity));
    Ok(FlowRun { cycles: stats.cycles, alut, stats })
}

/// `run_legup`: one sequential FSM worker on a one-bank cache, then
/// verification, then the area and power estimate.
///
/// # Errors
/// A simulator or verification failure.
pub fn run_legup(t: &Tracer, k: &BuiltKernel) -> Result<FlowRun, String> {
    let cfg = HwConfig {
        cache: CacheConfig { banks: 1, ..CacheConfig::default() },
        ..HwConfig::default()
    };
    let mut mem = k.mem.clone();
    let mut sys = HwSystem::for_single(&k.func, &k.args, cfg);
    let stats = sim_run(t, &mut sys, &mut mem)?;
    verify(t, k, &mem, sys.ret_value(), None)?;
    let _s = t.span("rtl.area_power");
    let area = estimate_area(&AreaModel::default(), &k.func, &schedule_function(&k.func));
    let activity = ActivityTrace {
        cycles: stats.cycles,
        workers: vec![(area.clone(), stats.workers[0].busy)],
        fifo_beats: 0,
        cache_accesses: stats.cache.accesses,
        cache_ports: 1,
        fifo_area: AreaReport::default(),
    };
    std::hint::black_box(evaluate(&PowerModel::default(), &activity));
    Ok(FlowRun { cycles: stats.cycles, alut: area.total(), stats })
}

/// A single-worker run under `cfg` (the memory-starved LegUp request),
/// verified against a precomputed reference.
///
/// # Errors
/// A simulator or verification failure.
pub fn run_single(
    t: &Tracer,
    k: &BuiltKernel,
    cfg: HwConfig,
    reference: &Reference,
) -> Result<SystemStats, String> {
    let mut mem = k.mem.clone();
    let mut sys = HwSystem::for_single(&k.func, &k.args, cfg);
    let stats = sim_run(t, &mut sys, &mut mem)?;
    verify(t, k, &mem, sys.ret_value(), Some(reference))?;
    Ok(stats)
}
