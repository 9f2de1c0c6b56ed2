//! Design-space search over the CGPA configuration lattice ([`DseLattice`]:
//! parallel-stage workers, FIFO depth, cache geometry, P1/P2 placement)
//! around the paper's one design point per kernel. Two searches share one
//! evaluator (a precompiled [`Design::Compiled`] through the run path of
//! [`crate::flows::run`]), a content-hash [`CompileCache`] and one
//! functional reference per call:
//!
//! - the explorer ([`crate::flows::run_cgpa_dse`]) evaluates every point
//!   concurrently and reports the (cycles, ALUTs, power) Pareto frontier
//!   plus a recommended point under an area budget (the DE4/Stratix IV
//!   envelope of the paper's evaluation, [`DE4_ALUT_BUDGET`]);
//! - the bottleneck walk ([`climb`]) raises, one axis value at a time, the
//!   axis its run's [`Profile`] verdict indicts. It can stop at a local
//!   minimum, but runs a handful of points, and its per-step verdicts
//!   record why each step was taken. Its steps are points of the default
//!   lattice, evaluated bit-equal to the explorer's (`tests/dse.rs`).

use crate::compiler::{CgpaCompiler, CgpaConfig, CompileError, Compiled};
use crate::flows::{
    reference, run_with, Design, FlowError, HwTuning, Reference, Run, RunResult, RunSpec,
};
use crate::profile::{Bottleneck, Profile};
use cgpa_analysis::MemoryModel;
use cgpa_ir::printer::print_function;
use cgpa_ir::Function;
use cgpa_kernels::BuiltKernel;
use cgpa_pipeline::ReplicablePlacement;
use cgpa_rtl::area::DE4_ALUT_BUDGET;
use cgpa_rtl::power::{energy_delay_product, PowerReport, CLOCK_HZ};
use cgpa_sim::cache::CacheConfig;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Map `f` over `items` on scoped threads, preserving input order. At most
/// `available_parallelism` threads pull items off a shared cursor: a DSE
/// lattice can hold hundreds of points, and one thread per point would
/// oversubscribe the host. Plain `std::thread::scope` — no pool, no extra
/// dependencies. The explorer and the bench harness share it.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let cap = std::thread::available_parallelism().map_or(4, usize::from);
    let cap = cap.clamp(1, items.len().max(1));
    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|s| {
        for _ in 0..cap {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let r = f(item);
                collected.lock().expect("a worker panicked holding the result lock").push((i, r));
            });
        }
    });
    let mut got = collected.into_inner().expect("scope propagates worker panics");
    got.sort_by_key(|&(i, _)| i);
    got.into_iter().map(|(_, r)| r).collect()
}

/// The configuration lattice the explorer enumerates, as independent axes.
#[derive(Debug, Clone)]
pub struct DseLattice {
    /// Parallel-stage worker counts (powers of two).
    pub workers: Vec<u32>,
    /// FIFO depths per channel in 32-bit beats.
    pub fifo_depths: Vec<usize>,
    /// D-cache line counts. Empty = inherit the environment's value
    /// ([`HwTuning::cache_lines`]) rather than sweeping the axis.
    pub cache_lines: Vec<u32>,
    /// D-cache bank (port) overrides; `None` derives one port per worker
    /// as the paper does (§4.1).
    pub cache_banks: Vec<Option<u32>>,
    /// Replicable-SCC duplication policies: P1 (pipelined) and/or P2
    /// (replicated). Points whose placement a kernel cannot compile are
    /// skipped with the compile error recorded.
    pub placements: Vec<ReplicablePlacement>,
}

impl Default for DseLattice {
    /// The full lattice, and the one [`climb`] walks: workers and FIFO
    /// depth in powers of two (1–16 workers, 16–256 beats) under both
    /// placements.
    fn default() -> Self {
        DseLattice {
            workers: vec![1, 2, 4, 8, 16],
            fifo_depths: vec![16, 32, 64, 128, 256],
            cache_lines: Vec::new(),
            cache_banks: vec![None],
            placements: vec![ReplicablePlacement::Pipelined, ReplicablePlacement::Replicated],
        }
    }
}

impl DseLattice {
    /// A small lattice for smoke runs (CI): the worker axis stays full —
    /// it is the highest-leverage knob — but FIFO depth is sampled and the
    /// placement axis is dropped.
    #[must_use]
    pub fn quick() -> Self {
        DseLattice {
            workers: vec![1, 2, 4, 8, 16],
            fifo_depths: vec![16, 64, 256],
            cache_lines: Vec::new(),
            cache_banks: vec![None],
            placements: vec![ReplicablePlacement::Pipelined],
        }
    }

    /// Materialize the cross product of all axes under environment `env`.
    #[must_use]
    pub fn points(&self, env: &HwTuning) -> Vec<DsePoint> {
        let lines: &[u32] =
            if self.cache_lines.is_empty() { &[env.cache_lines] } else { &self.cache_lines };
        let mut out = Vec::new();
        for &placement in &self.placements {
            for &workers in &self.workers {
                for &fifo_depth_beats in &self.fifo_depths {
                    for &cache_lines in lines {
                        for &cache_banks in &self.cache_banks {
                            out.push(DsePoint {
                                workers,
                                placement,
                                fifo_depth_beats,
                                cache_lines,
                                cache_banks,
                            });
                        }
                    }
                }
            }
        }
        out
    }

    /// The point after `p` that `profile`'s verdict calls for: the next
    /// worker count up for a saturated parallel stage, or for a
    /// latency-bound memory port when a parallel stage exists (more ports,
    /// more misses in flight); the next FIFO depth up for a full queue.
    /// `None` at an axis end or when no axis addresses the verdict (a
    /// sequential stage, conflict-bound memory, or a stage the profile does
    /// not carry).
    fn next_point(&self, profile: &Profile, p: DsePoint) -> Option<DsePoint> {
        let more_workers = || Some(DsePoint { workers: next_up(&self.workers, p.workers)?, ..p });
        match &profile.bottleneck {
            Bottleneck::QueueFull { .. } => Some(DsePoint {
                fifo_depth_beats: next_up(&self.fifo_depths, p.fifo_depth_beats)?,
                ..p
            }),
            Bottleneck::Stage { stage, .. }
                if profile.stage(*stage).is_some_and(|s| s.parallel) =>
            {
                more_workers()
            }
            Bottleneck::MemoryPort { latency_bound: true, .. }
                if profile.stages.iter().any(|s| s.parallel) =>
            {
                more_workers()
            }
            _ => None,
        }
    }
}

/// The smallest value on `axis` above `v`.
fn next_up<T: Ord + Copy>(axis: &[T], v: T) -> Option<T> {
    axis.iter().copied().filter(|&a| a > v).min()
}

/// One candidate configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DsePoint {
    /// Parallel-stage worker count.
    pub workers: u32,
    /// P1 vs P2 placement.
    pub placement: ReplicablePlacement,
    /// FIFO depth per channel in beats.
    pub fifo_depth_beats: usize,
    /// D-cache lines.
    pub cache_lines: u32,
    /// D-cache banks; `None` = one port per worker (clamped to 8).
    pub cache_banks: Option<u32>,
}

impl Default for DsePoint {
    /// The paper's design point: [`CgpaConfig::default`] under
    /// [`HwTuning::default`] (P1, 4 workers, 16-beat FIFOs).
    fn default() -> Self {
        let (c, t) = (CgpaConfig::default(), HwTuning::default());
        DsePoint {
            workers: c.workers,
            placement: c.placement,
            fifo_depth_beats: t.fifo_depth_beats,
            cache_lines: t.cache_lines,
            cache_banks: t.cache_banks,
        }
    }
}

impl DsePoint {
    /// Compact human-readable label, e.g. `P1 w4 fifo16 lines512`.
    #[must_use]
    pub fn label(&self) -> String {
        let p = match self.placement {
            ReplicablePlacement::Pipelined => "P1",
            ReplicablePlacement::Replicated => "P2",
        };
        let banks = match self.cache_banks {
            Some(b) => format!(" banks{b}"),
            None => String::new(),
        };
        format!(
            "{p} w{} fifo{} lines{}{banks}",
            self.workers, self.fifo_depth_beats, self.cache_lines
        )
    }

    /// The compiler configuration of this point (partition heuristics come
    /// from `base`).
    #[must_use]
    pub fn config(&self, base: &CgpaConfig) -> CgpaConfig {
        CgpaConfig { workers: self.workers, placement: self.placement, partition: base.partition }
    }

    /// The simulator knobs of this point; miss latency and engine come from
    /// the environment `env`.
    #[must_use]
    pub fn tuning(&self, env: &HwTuning) -> HwTuning {
        HwTuning {
            fifo_depth_beats: self.fifo_depth_beats,
            cache_lines: self.cache_lines,
            cache_banks: self.cache_banks,
            miss_latency: env.miss_latency,
            engine: env.engine,
        }
    }
}

/// A fully evaluated design point: the three objectives plus secondary
/// metrics.
#[derive(Debug, Clone)]
pub struct DseOutcome {
    /// The configuration.
    pub point: DsePoint,
    /// Objective 1: simulated kernel cycles (minimize).
    pub cycles: u64,
    /// Objective 2: estimated ALUTs (minimize).
    pub alut: u32,
    /// Objective 3: modelled average power in mW (minimize).
    pub power_mw: f64,
    /// Energy in µJ.
    pub energy_uj: f64,
    /// Energy-delay product in µJ·s (tie-breaker between frontier points).
    pub edp: f64,
}

/// `a` dominates `b` when `a` is no worse on every objective and strictly
/// better on at least one.
#[must_use]
pub fn dominates(a: &DseOutcome, b: &DseOutcome) -> bool {
    a.cycles <= b.cycles
        && a.alut <= b.alut
        && a.power_mw <= b.power_mw
        && (a.cycles < b.cycles || a.alut < b.alut || a.power_mw < b.power_mw)
}

/// The non-dominated subset of `outcomes` (input order preserved).
#[must_use]
pub fn pareto_frontier(outcomes: &[DseOutcome]) -> Vec<DseOutcome> {
    outcomes.iter().filter(|c| !outcomes.iter().any(|o| dominates(o, c))).cloned().collect()
}

/// Compile-cache counters. `compiles` counts actual compiler invocations
/// (successes only — failed compiles are re-validated each run, they are
/// cheap and never cached); `hits` counts lookups served from the cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileCacheStats {
    /// Compiler invocations that produced (and cached) a design.
    pub compiles: u64,
    /// Lookups answered without compiling.
    pub hits: u64,
}

/// Content-addressed compile memoization: designs are keyed on a hash of
/// everything the compiler reads (the kernel's printed IR text, its
/// [`MemoryModel`] and every [`CgpaConfig`] field), so the N simulation
/// configs sharing one compiled design pay for compilation once — and a
/// second search over the same kernels compiles nothing at all. Shareable
/// across threads; cached designs come back as [`Arc<Compiled>`].
#[derive(Debug, Default)]
pub struct CompileCache {
    entries: Mutex<HashMap<u64, Arc<Compiled>>>,
    compiles: AtomicU64,
    hits: AtomicU64,
}

impl CompileCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        CompileCache::default()
    }

    /// The content hash for (kernel IR, memory model, compiler config). The
    /// IR is keyed by its printed text — the printer is stable and covers
    /// everything the compiler reads; floats are hashed by bit pattern.
    #[must_use]
    pub fn key(func: &Function, model: &MemoryModel, config: &CgpaConfig) -> u64 {
        let mut h = DefaultHasher::new();
        print_function(func).hash(&mut h);
        model.hash(&mut h);
        config.workers.hash(&mut h);
        matches!(config.placement, ReplicablePlacement::Replicated).hash(&mut h);
        config.partition.feeder_weight_limit.to_bits().hash(&mut h);
        config.partition.demotion_weight_fraction.to_bits().hash(&mut h);
        config.partition.min_parallel_fraction.to_bits().hash(&mut h);
        h.finish()
    }

    /// The cached design for (`func`, `model`, `config`), compiling on a
    /// miss.
    ///
    /// Compiles are deterministic, so on a concurrent same-key miss either
    /// thread's design is interchangeable; the first insert wins.
    ///
    /// # Errors
    /// [`CompileError`] from a fresh compile; failures are not cached.
    pub fn get_or_compile(
        &self,
        func: &Function,
        model: &MemoryModel,
        config: CgpaConfig,
    ) -> Result<Arc<Compiled>, CompileError> {
        let key = Self::key(func, model, &config);
        if let Some(hit) = self.entries.lock().expect("cache lock").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(hit));
        }
        let compiled = Arc::new(CgpaCompiler::new(config).compile(func, model)?);
        self.compiles.fetch_add(1, Ordering::Relaxed);
        self.entries
            .lock()
            .expect("cache lock")
            .entry(key)
            .or_insert_with(|| Arc::clone(&compiled));
        Ok(compiled)
    }

    /// Counters since construction.
    #[must_use]
    pub fn stats(&self) -> CompileCacheStats {
        CompileCacheStats {
            compiles: self.compiles.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
        }
    }

    /// Number of cached designs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.lock().expect("cache lock").len()
    }

    /// True when nothing has been cached yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A stable hash of a compiled design's FSM schedules: [`fnv1a64`] of
/// their `{:?}` rendering. It checks that a memoized compile is
/// bit-identical to a fresh one (together with the emitted Verilog text),
/// and the committed ledger digests it.
#[must_use]
pub fn schedule_hash(compiled: &Compiled) -> u64 {
    fnv1a64(format!("{:?}", compiled.fsms).as_bytes())
}

/// FNV-1a, 64-bit. Spelled out because `DefaultHasher`'s algorithm may
/// change between Rust releases, and digests built on this one are
/// committed.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// One kernel's exploration result.
#[derive(Debug, Clone)]
pub struct DseReport {
    /// Kernel name.
    pub kernel: String,
    /// The area budget the recommendation was made under.
    pub area_budget_alut: u32,
    /// Every feasible point with its objectives, lattice order.
    pub evaluated: Vec<DseOutcome>,
    /// Points that failed to compile or simulate, with the reason (e.g. the
    /// P2 placement on a kernel with no replicable section).
    pub skipped: Vec<(DsePoint, String)>,
    /// The non-dominated subset of `evaluated`.
    pub frontier: Vec<DseOutcome>,
    /// Fastest frontier point fitting the area budget (falls back to the
    /// smallest frontier point when nothing fits).
    pub recommended: Option<DseOutcome>,
    /// Compiler invocations this exploration performed (one per distinct
    /// `CgpaConfig` on a cold cache; zero on a warm one).
    pub compiles: u64,
    /// Compile-cache hits this exploration observed.
    pub cache_hits: u64,
}

impl DseReport {
    /// Cycles of the fastest frontier point.
    #[must_use]
    pub fn best_cycles(&self) -> Option<u64> {
        self.frontier.iter().map(|o| o.cycles).min()
    }
}

fn outcome_of(point: DsePoint, r: &crate::flows::RunResult) -> DseOutcome {
    let power = PowerReport {
        power_mw: r.power_mw,
        energy_uj: r.energy_uj,
        runtime_s: r.cycles as f64 / CLOCK_HZ,
    };
    DseOutcome {
        point,
        cycles: r.cycles,
        alut: r.alut,
        power_mw: r.power_mw,
        energy_uj: r.energy_uj,
        edp: energy_delay_product(&power),
    }
}

/// [`crate::flows::run_cgpa_dse`], which documents it. Points with invalid
/// cache geometry are rejected up front by [`CacheConfig::validate`].
pub(crate) fn explore(
    k: &BuiltKernel,
    lattice: &DseLattice,
    env: HwTuning,
    area_budget_alut: u32,
    cache: &CompileCache,
) -> Result<DseReport, FlowError> {
    let stats_before = cache.stats();
    let mut skipped: Vec<(DsePoint, String)> = Vec::new();
    let mut points: Vec<DsePoint> = Vec::new();
    for p in lattice.points(&env) {
        let geometry = CacheConfig {
            lines: p.cache_lines,
            banks: p.cache_banks.unwrap_or_else(|| p.workers.clamp(1, 8)),
            ..CacheConfig::default()
        };
        match geometry.validate() {
            Ok(()) => points.push(p),
            Err(e) => skipped.push((p, e.to_string())),
        }
    }

    // Group points by compiler config: each group shares one design.
    let mut groups: Vec<(CgpaConfig, Vec<DsePoint>)> = Vec::new();
    for p in points {
        let cfg = p.config(&CgpaConfig::default());
        match groups.iter_mut().find(|(c, _)| *c == cfg) {
            Some((_, ps)) => ps.push(p),
            None => groups.push((cfg, vec![p])),
        }
    }

    // Phase 1: compile each group once, through the memoizing cache.
    let compiled = par_map(&groups, |(cfg, _)| {
        cache.get_or_compile(&k.func, &k.model, *cfg).map_err(|e| e.to_string())
    });

    // Phase 2: simulate every (point, design) pair.
    let mut sims: Vec<(DsePoint, Arc<Compiled>)> = Vec::new();
    for ((_, ps), c) in groups.iter().zip(compiled) {
        match c {
            Ok(design) => sims.extend(ps.iter().map(|&p| (p, Arc::clone(&design)))),
            Err(e) => skipped.extend(ps.iter().map(|&p| (p, format!("compile: {e}")))),
        }
    }
    // Every point is verified in full against one reference.
    let runs = if sims.is_empty() {
        Vec::new()
    } else {
        let reference = reference(k)?;
        par_map(&sims, |(p, design)| {
            run_point(k, *p, design, env, &reference)
                .map(|run| outcome_of(*p, &run.result))
                .map_err(|e| e.to_string())
        })
    };
    let mut evaluated: Vec<DseOutcome> = Vec::new();
    for ((p, _), r) in sims.iter().zip(runs) {
        match r {
            Ok(o) => evaluated.push(o),
            Err(e) => skipped.push((*p, format!("simulate: {e}"))),
        }
    }
    if evaluated.is_empty() {
        let why = skipped
            .first()
            .map_or_else(|| "empty lattice".to_string(), |(p, e)| format!("{}: {e}", p.label()));
        return Err(FlowError::Interp(format!("no feasible design point ({why})")));
    }

    let frontier = pareto_frontier(&evaluated);
    // Recommend the fastest frontier point that fits the budget; when none
    // fits, the smallest one (the least-infeasible design).
    let mut fits: Vec<&DseOutcome> =
        frontier.iter().filter(|o| o.alut <= area_budget_alut).collect();
    fits.sort_by(|a, b| a.cycles.cmp(&b.cycles).then_with(|| a.edp.total_cmp(&b.edp)));
    let recommended = match fits.first() {
        Some(o) => Some((**o).clone()),
        None => frontier.iter().min_by_key(|o| o.alut).cloned(),
    };

    let stats_after = cache.stats();
    Ok(DseReport {
        kernel: k.name.clone(),
        area_budget_alut,
        evaluated,
        skipped,
        frontier,
        recommended,
        compiles: stats_after.compiles - stats_before.compiles,
        cache_hits: stats_after.hits - stats_before.hits,
    })
}

/// Run point `p` on its compiled `design` and verify the run against
/// `reference`: the one evaluator of [`explore`] and [`climb`].
fn run_point(
    k: &BuiltKernel,
    p: DsePoint,
    design: &Compiled,
    env: HwTuning,
    reference: &Reference,
) -> Result<Run, FlowError> {
    let spec = RunSpec {
        config: p.config(&CgpaConfig::default()),
        tuning: p.tuning(&env),
        design: Design::Compiled(design),
        ..RunSpec::default()
    };
    run_with(k, &spec, reference)
}

/// A [`climb`] stops at the first step that gains less than this fraction.
const CLIMB_MIN_GAIN: f64 = 0.02;

/// What a [`climb`] evaluated, and the best run it found.
#[derive(Debug, Clone)]
pub struct Climb {
    /// Every point evaluated, in order, with its run's bottleneck verdict
    /// ([`Profile::bottleneck_summary`]). The first is the start point;
    /// each later one raises the axis its predecessor's verdict indicts.
    pub steps: Vec<(DseOutcome, String)>,
    /// The best run: the last step that improved on its predecessor by at
    /// least 2% (or the start point).
    pub best: RunResult,
    /// The best run's profile.
    pub profile: Profile,
}

impl Climb {
    /// Cycles of the start point.
    #[must_use]
    pub fn baseline_cycles(&self) -> u64 {
        self.steps.first().map_or(self.best.cycles, |(o, _)| o.cycles)
    }
}

/// Bottleneck walk over [`DseLattice::default`] from `start`: run a point,
/// then move one value up the axis its profile's verdict indicts (workers
/// or FIFO depth), until a step gains less than 2%, no axis addresses the
/// verdict, or the axis ends. Each step raises one axis of a finite
/// lattice, so the walk is finite. Compiles go through `cache`; miss
/// latency and engine come from `env`; every run is verified against one
/// reference per walk.
///
/// # Errors
/// [`FlowError`] from the first point that fails to compile, simulate or
/// verify, and [`FlowError::Interp`] when the reference cannot be computed.
pub fn climb(
    k: &BuiltKernel,
    start: DsePoint,
    env: HwTuning,
    cache: &CompileCache,
) -> Result<Climb, FlowError> {
    let reference = reference(k)?;
    let lattice = DseLattice::default();
    let mut steps = Vec::new();
    let mut best: Option<(RunResult, Profile)> = None;
    let mut next = Some(start);
    while let Some(p) = next {
        let design = cache.get_or_compile(&k.func, &k.model, p.config(&CgpaConfig::default()))?;
        let run = run_point(k, p, &design, env, &reference)?;
        let profile = run.profile.expect("pipeline runs are profiled");
        steps.push((outcome_of(p, &run.result), profile.bottleneck_summary()));
        let floor = |b: &RunResult| b.cycles as f64 * (1.0 - CLIMB_MIN_GAIN);
        if best.as_ref().is_some_and(|(b, _)| run.result.cycles as f64 >= floor(b)) {
            break;
        }
        next = lattice.next_point(&profile, p);
        best = Some((run.result, profile));
    }
    let (best, profile) = best.expect("the start point is always accepted");
    Ok(Climb { steps, best, profile })
}

/// The default area budget: the DE4's Stratix IV envelope.
pub const DEFAULT_AREA_BUDGET_ALUT: u32 = DE4_ALUT_BUDGET;

#[cfg(test)]
mod tests {
    use super::*;

    fn o(cycles: u64, alut: u32, power_mw: f64) -> DseOutcome {
        DseOutcome {
            point: DsePoint { workers: 1, ..DsePoint::default() },
            cycles,
            alut,
            power_mw,
            energy_uj: 0.0,
            edp: 0.0,
        }
    }

    #[test]
    fn dominance_requires_strict_improvement_somewhere() {
        assert!(dominates(&o(10, 10, 1.0), &o(20, 10, 1.0)));
        assert!(!dominates(&o(10, 10, 1.0), &o(10, 10, 1.0))); // equal: no
        assert!(!dominates(&o(10, 20, 1.0), &o(20, 10, 1.0))); // trade-off
    }

    #[test]
    fn frontier_drops_dominated_points_only() {
        let all = vec![o(10, 30, 1.0), o(20, 20, 1.0), o(30, 10, 1.0), o(25, 25, 1.0)];
        let f = pareto_frontier(&all);
        assert_eq!(f.len(), 3);
        assert!(f.iter().all(|p| p.cycles != 25));
    }

    /// A hand-built profile limited by `bottleneck`, carrying a sequential
    /// stage 0 and, when `parallel`, a parallel stage 1 — the shape of a
    /// profile deserialized from disk or assembled against another compile.
    fn profile(parallel: bool, bottleneck: Bottleneck) -> Profile {
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
        let mut stages = vec![stage(0, false)];
        if parallel {
            stages.push(stage(1, true));
        }
        Profile {
            kernel: "k".to_string(),
            config: "CGPA(P1)".to_string(),
            shape: "S-P".to_string(),
            workers: 4,
            fifo_depth_beats: 16,
            cycles: 1000,
            stages,
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
            bottleneck,
        }
    }

    fn stage(stage: usize) -> Bottleneck {
        Bottleneck::Stage { stage, utilization: 0.99 }
    }

    fn next(profile: &Profile, p: DsePoint) -> Option<DsePoint> {
        DseLattice::default().next_point(profile, p)
    }

    #[test]
    fn walk_stops_at_a_stage_it_cannot_scale() {
        let p = DsePoint::default();
        // A verdict naming a stage the profile does not carry stops the
        // walk instead of panicking; its summary names only the index.
        let absent = profile(true, stage(7));
        assert!(absent.stage(7).is_none());
        assert_eq!(next(&absent, p), None);
        assert!(absent.bottleneck_summary().contains("not in profile"));
        // A sequential stage cannot be scaled.
        assert_eq!(next(&profile(true, stage(0)), p), None);
    }

    #[test]
    fn walk_scales_a_saturated_parallel_stage_to_the_next_worker_value() {
        let p = DsePoint::default();
        let saturated = profile(true, stage(1));
        assert_eq!(next(&saturated, p), Some(DsePoint { workers: 8, ..p }));
        assert_eq!(
            next(&saturated, DsePoint { workers: 3, ..p }),
            Some(DsePoint { workers: 4, ..p })
        );
        assert_eq!(next(&saturated, DsePoint { workers: 16, ..p }), None);
    }

    #[test]
    fn walk_deepens_a_full_queue_up_to_256_beats() {
        let p = DsePoint::default();
        let full = profile(true, Bottleneck::QueueFull { queue: 0, full_fraction: 0.9 });
        assert_eq!(next(&full, p), Some(DsePoint { fifo_depth_beats: 32, ..p }));
        assert_eq!(next(&full, DsePoint { fifo_depth_beats: 256, ..p }), None);
    }

    #[test]
    fn walk_scales_a_latency_bound_port_only_through_a_parallel_stage() {
        let p = DsePoint::default();
        let latency = Bottleneck::MemoryPort { stall_fraction: 0.8, latency_bound: true };
        assert_eq!(next(&profile(false, latency.clone()), p), None);
        assert_eq!(next(&profile(true, latency), p), Some(DsePoint { workers: 8, ..p }));
        // More workers make bank conflicts worse.
        let conflicts = Bottleneck::MemoryPort { stall_fraction: 0.8, latency_bound: false };
        assert_eq!(next(&profile(true, conflicts), p), None);
    }

    #[test]
    fn climb_improves_a_memory_latency_dominated_config() {
        let k = cgpa_kernels::em3d::build(&cgpa_kernels::em3d::Params::fixed(60, 60, 4, 16), 5);
        // Two cache lines + 400-cycle misses: every access essentially goes
        // to DRAM, so the profile indicts the memory port and the walk
        // scales workers to get more misses in flight.
        let himem = HwTuning { miss_latency: 400, cache_lines: 2, ..HwTuning::default() };
        let start = DsePoint { workers: 2, cache_lines: 2, ..DsePoint::default() };
        let c = climb(&k, start, himem, &CompileCache::new()).unwrap();
        assert!(
            c.best.cycles < c.baseline_cycles(),
            "the walk found nothing: baseline {} vs best {}",
            c.baseline_cycles(),
            c.best.cycles
        );
        assert!(c.steps.len() >= 2);
        assert_eq!(c.steps[0].0.point, start);
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u32> = (0..37).collect();
        let doubled = par_map(&items, |x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(par_map(&items[..1], |x| *x), [0]);
        assert!(par_map(&Vec::<u32>::new(), |x| *x).is_empty());
    }
}
