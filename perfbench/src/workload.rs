//! The three workloads. Each is a fixed list of requests — one public call
//! each — that the closed loop replays pass after pass. Set-up builds the
//! kernels from the seed and runs one untimed warm-up pass whose outputs
//! become the expected outputs every later request is checked against.

use crate::calls::{self, FlowRun, Tracer};
use cgpa::compiler::{CgpaCompiler, CgpaConfig};
use cgpa::dse::{
    schedule_hash, CompileCache, CompileCacheStats, DseLattice, DseReport, DEFAULT_AREA_BUDGET_ALUT,
};
use cgpa::flows::{
    run_cgpa, run_cgpa_dse, run_cgpa_tuned, run_legup, run_legup_engine, FlowError, HwTuning,
    RunResult,
};
use cgpa::report::geomean;
use cgpa_bench::suite::has_p2;
use cgpa_bench::{bench_kernels, KernelSet};
use cgpa_kernels::BuiltKernel;
use cgpa_pipeline::ReplicablePlacement;
use cgpa_sim::cache::CacheConfig;
use cgpa_sim::{HwConfig, HwSystem, SimEngine, SystemStats};
use std::time::{Duration, Instant};

/// Miss latency of the memory-starved regime, in cycles.
pub const HIMEM_MISS_LATENCY: u32 = 400;
/// D-cache lines of the memory-starved regime.
pub const HIMEM_CACHE_LINES: u32 = 2;
/// Parallel-stage worker counts the `compile` workload sweeps.
pub const COMPILE_WORKERS: [u32; 5] = [1, 2, 4, 8, 16];

/// A workload by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's evaluation at full scale.
    Suite,
    /// Memory-starved LegUp runs and design-space exploration.
    HimemDse,
    /// Compilation only.
    Compile,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::Suite, Kind::HimemDse, Kind::Compile];

    /// The command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::Suite => "suite",
            Kind::HimemDse => "himem-dse",
            Kind::Compile => "compile",
        }
    }

    /// Input scale. `suite` and `compile` use the paper's full inputs.
    /// `himem-dse` uses the quick ones: one full-scale pass takes 2–3 s, too
    /// few passes per run to find each request's fastest time on a loaded
    /// host.
    #[must_use]
    pub fn kernel_set(self) -> KernelSet {
        match self {
            Kind::Suite | Kind::Compile => KernelSet::Full,
            Kind::HimemDse => KernelSet::Quick,
        }
    }

    /// Look a workload up by its command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Work one request completed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Work {
    /// Throughput units: one per request, or the DSE points evaluated.
    pub units: u64,
    /// Cycles simulated.
    pub sim_cycles: u64,
}

/// A modelled result of the warm-up pass: exact for a given seed.
#[derive(Debug, Clone, Copy)]
pub struct Modelled {
    /// Metric name.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A workload after set-up.
pub trait Workload {
    /// Requests in one pass.
    fn requests(&self) -> usize;
    /// Run request `i` with tracing off. The duration covers only the
    /// public call; the output is checked afterwards, untimed.
    fn request(&mut self, i: usize) -> (Duration, Result<Work, String>);
    /// Run request `i` taken apart into spans; its outputs must equal the
    /// flow call's.
    ///
    /// # Errors
    /// A failed call or a mismatch.
    fn traced_request(&mut self, i: usize, t: &Tracer) -> Result<(), String>;
    /// The untimed check phase; returns every failure.
    fn check(&mut self) -> Vec<String>;
    /// Modelled results of this seed.
    fn modelled(&self) -> Vec<Modelled>;
    /// Counters of the run's compile cache, if the workload keeps one.
    fn cache_stats(&self) -> Option<CompileCacheStats> {
        None
    }
}

/// Build the workload's kernels from `seed` and run its warm-up pass. With
/// a tracer, the kernel build (and, for `himem-dse`, the cold compiles) are
/// recorded as spans.
///
/// # Errors
/// A failed warm-up request.
pub fn setup(kind: Kind, seed: u64, t: Option<&Tracer>) -> Result<Box<dyn Workload>, String> {
    let kernels = {
        let _s = t.map(|t| t.span("kernels.build"));
        bench_kernels(kind.kernel_set(), seed)
    };
    let mut w: Box<dyn Workload> = match kind {
        Kind::Suite => Box::new(Suite::new(kernels)),
        Kind::HimemDse => Box::new(HimemDse::new(kernels, t)?),
        Kind::Compile => Box::new(CompileDesigns::new(kernels)),
    };
    for i in 0..w.requests() {
        w.request(i).1?;
    }
    Ok(w)
}

/// Time `f` alone.
fn timed<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let start = Instant::now();
    let r = f();
    (start.elapsed(), r)
}

/// Statistics rendered for comparison across engines: every field except
/// `skipped_cycles`, which only the event-driven engine fills.
fn engine_independent(stats: &SystemStats) -> String {
    let mut s = stats.clone();
    s.skipped_cycles = 0;
    format!("{s:?}")
}

/// Fill `expected` on the warm-up pass, then require equality.
fn expect_same<T: PartialEq>(expected: &mut Option<T>, got: T, what: &str) -> Result<(), String> {
    match expected {
        None => {
            *expected = Some(got);
            Ok(())
        }
        Some(e) if *e == got => Ok(()),
        Some(_) => Err(format!("{what} differs from the warm-up's")),
    }
}

fn placement_label(p: ReplicablePlacement) -> &'static str {
    match p {
        ReplicablePlacement::Pipelined => "P1",
        ReplicablePlacement::Replicated => "P2",
    }
}

// ---------------------------------------------------------------- suite

#[derive(Debug, Clone, Copy)]
enum SuiteReq {
    Legup(usize),
    Cgpa(usize, ReplicablePlacement),
}

/// `suite`: per kernel `run_legup`, `run_cgpa` P1 and, where the paper
/// reports it, P2, at §4.1 defaults.
struct Suite {
    kernels: Vec<BuiltKernel>,
    reqs: Vec<SuiteReq>,
    /// Warm-up results: cycles, ALUTs and the engine-independent stats.
    expected: Vec<Option<(u64, u32, String)>>,
}

impl Suite {
    fn new(kernels: Vec<BuiltKernel>) -> Self {
        let mut reqs = Vec::new();
        for (i, k) in kernels.iter().enumerate() {
            reqs.push(SuiteReq::Legup(i));
            reqs.push(SuiteReq::Cgpa(i, ReplicablePlacement::Pipelined));
            if has_p2(&k.name) {
                reqs.push(SuiteReq::Cgpa(i, ReplicablePlacement::Replicated));
            }
        }
        let n = reqs.len();
        Suite { kernels, reqs, expected: vec![None; n] }
    }

    fn label(&self, i: usize) -> String {
        match self.reqs[i] {
            SuiteReq::Legup(k) => format!("{} LegUp", self.kernels[k].name),
            SuiteReq::Cgpa(k, p) => {
                format!("{} CGPA({})", self.kernels[k].name, placement_label(p))
            }
        }
    }

    fn config(p: ReplicablePlacement) -> CgpaConfig {
        CgpaConfig { placement: p, ..CgpaConfig::default() }
    }

    /// Run request `i` through its flow under `engine`.
    fn flow(&self, i: usize, engine: SimEngine) -> Result<RunResult, FlowError> {
        match self.reqs[i] {
            SuiteReq::Legup(k) => run_legup_engine(&self.kernels[k], engine),
            SuiteReq::Cgpa(k, p) => {
                let tuning = HwTuning { engine, ..HwTuning::default() };
                run_cgpa_tuned(&self.kernels[k], Suite::config(p), tuning)
            }
        }
    }

    /// Record the warm-up's outputs of request `i`, or require equal ones.
    fn record(
        &mut self,
        i: usize,
        cycles: u64,
        alut: u32,
        stats: &SystemStats,
    ) -> Result<(), String> {
        let stats = engine_independent(stats);
        match &self.expected[i] {
            None => self.expected[i] = Some((cycles, alut, stats)),
            Some((c, a, _)) if (*c, *a) != (cycles, alut) => {
                return Err(format!(
                    "{}: {cycles} cycles and {alut} ALUTs, warm-up gave {c} and {a}",
                    self.label(i)
                ));
            }
            Some((_, _, s)) if *s != stats => {
                return Err(format!(
                    "{}: simulator statistics differ from the warm-up's",
                    self.label(i)
                ));
            }
            Some(_) => {}
        }
        Ok(())
    }

    fn record_run(&mut self, i: usize, r: Result<RunResult, FlowError>) -> Result<u64, String> {
        let r = r.map_err(|e| format!("{}: {e}", self.label(i)))?;
        let stats = r.stats.as_ref().ok_or_else(|| format!("{}: no statistics", self.label(i)))?;
        self.record(i, r.cycles, r.alut, stats)?;
        Ok(r.cycles)
    }
}

impl Workload for Suite {
    fn requests(&self) -> usize {
        self.reqs.len()
    }

    fn request(&mut self, i: usize) -> (Duration, Result<Work, String>) {
        let (dt, r) = match self.reqs[i] {
            SuiteReq::Legup(k) => timed(|| run_legup(&self.kernels[k])),
            SuiteReq::Cgpa(k, p) => timed(|| run_cgpa(&self.kernels[k], Suite::config(p))),
        };
        (dt, self.record_run(i, r).map(|cycles| Work { units: 1, sim_cycles: cycles }))
    }

    fn traced_request(&mut self, i: usize, t: &Tracer) -> Result<(), String> {
        let run: FlowRun = match self.reqs[i] {
            SuiteReq::Legup(k) => calls::run_legup(t, &self.kernels[k])?,
            SuiteReq::Cgpa(k, p) => {
                let k = &self.kernels[k];
                let compiled = calls::compile(t, k, Suite::config(p))?;
                calls::run_compiled(t, k, &compiled, HwTuning::default())?
            }
        };
        self.record(i, run.cycles, run.alut, &run.stats).map_err(|e| format!("taken apart, {e}"))
    }

    fn check(&mut self) -> Vec<String> {
        let mut failures = Vec::new();
        for i in 0..self.reqs.len() {
            let r = self.flow(i, SimEngine::PerCycle);
            if let Err(e) = self.record_run(i, r) {
                failures.push(format!("per-cycle engine: {e}"));
            }
        }
        failures
    }

    fn modelled(&self) -> Vec<Modelled> {
        let got: Vec<(u64, u32)> =
            self.expected.iter().map(|e| e.as_ref().map_or((0, 0), |(c, a, _)| (*c, *a))).collect();
        let mut speedups = Vec::new();
        for (i, req) in self.reqs.iter().enumerate() {
            if let SuiteReq::Cgpa(k, ReplicablePlacement::Pipelined) = *req {
                let legup =
                    self.reqs.iter().position(|r| matches!(r, SuiteReq::Legup(l) if *l == k));
                if let Some(l) = legup {
                    speedups.push(got[l].0 as f64 / got[i].0.max(1) as f64);
                }
            }
        }
        vec![
            Modelled {
                name: "sim_cycles_total",
                value: got.iter().map(|g| g.0).sum::<u64>() as f64,
                unit: "cycles",
            },
            Modelled {
                name: "speedup_vs_legup_geomean",
                value: geomean(&speedups).unwrap_or(0.0),
                unit: "x",
            },
            Modelled {
                name: "alut_total",
                value: got.iter().map(|g| u64::from(g.1)).sum::<u64>() as f64,
                unit: "ALUT",
            },
        ]
    }
}

// ------------------------------------------------------------ himem-dse

/// The memory-starved single-worker configuration: one bank, two lines,
/// 400-cycle misses.
fn himem_legup_config(engine: SimEngine) -> HwConfig {
    HwConfig {
        cache: CacheConfig {
            banks: 1,
            lines: HIMEM_CACHE_LINES,
            miss_latency: HIMEM_MISS_LATENCY,
            ..CacheConfig::default()
        },
        engine,
        ..HwConfig::default()
    }
}

/// The explorer's environment in the same regime (banks follow workers).
fn himem_env() -> HwTuning {
    HwTuning {
        miss_latency: HIMEM_MISS_LATENCY,
        cache_lines: HIMEM_CACHE_LINES,
        ..HwTuning::default()
    }
}

/// What one exploration found, compared across passes.
#[derive(Debug, Clone, PartialEq)]
struct DseSummary {
    /// (label, cycles, ALUTs) of every evaluated point.
    evaluated: Vec<(String, u64, u32)>,
    skipped: usize,
    best_cycles: Option<u64>,
    recommended_alut: Option<u32>,
}

impl DseSummary {
    fn of(r: &DseReport) -> Self {
        DseSummary {
            evaluated: r.evaluated.iter().map(|o| (o.point.label(), o.cycles, o.alut)).collect(),
            skipped: r.skipped.len(),
            best_cycles: r.best_cycles(),
            recommended_alut: r.recommended.as_ref().map(|o| o.alut),
        }
    }
}

/// `himem-dse`: per kernel one single-worker LegUp `HwSystem::run` and one
/// `run_cgpa_dse` over `DseLattice::quick()`, sharing one compile cache.
struct HimemDse {
    kernels: Vec<BuiltKernel>,
    references: Vec<calls::Reference>,
    cache: CompileCache,
    lattice: DseLattice,
    legup: Vec<Option<(u64, String)>>,
    dse: Vec<Option<DseSummary>>,
}

impl HimemDse {
    fn new(kernels: Vec<BuiltKernel>, t: Option<&Tracer>) -> Result<Self, String> {
        let references = kernels.iter().map(BuiltKernel::reference).collect();
        let cache = CompileCache::new();
        let lattice = DseLattice::quick();
        if let Some(t) = t {
            // Compile every design the explorer will ask for, one span each;
            // the warm-up explorations then find them cached.
            let base = CgpaConfig::default();
            for k in &kernels {
                let mut configs: Vec<CgpaConfig> = Vec::new();
                for p in lattice.points(&himem_env()) {
                    if !configs.contains(&p.config(&base)) {
                        configs.push(p.config(&base));
                    }
                }
                for cfg in configs {
                    let _s = t.span("core.compile");
                    cache
                        .get_or_compile(&k.func, &k.model, cfg)
                        .map_err(|e| format!("{}: {e}", k.name))?;
                }
            }
        }
        let n = kernels.len();
        Ok(HimemDse {
            kernels,
            references,
            cache,
            lattice,
            legup: vec![None; n],
            dse: vec![None; n],
        })
    }

    fn record_legup(&mut self, k: usize, stats: &SystemStats) -> Result<(), String> {
        let what = format!(
            "{} memory-starved LegUp run ({} cycles) or its statistics",
            self.kernels[k].name, stats.cycles
        );
        expect_same(&mut self.legup[k], (stats.cycles, engine_independent(stats)), &what)
    }

    fn record_dse(&mut self, k: usize, r: &DseReport) -> Result<Work, String> {
        let what = format!("{} exploration", self.kernels[k].name);
        let summary = DseSummary::of(r);
        if summary.skipped > 0 || summary.best_cycles.is_none() {
            return Err(format!("{what}: {} of the lattice points failed", summary.skipped));
        }
        let work = Work {
            units: summary.evaluated.len() as u64,
            sim_cycles: summary.evaluated.iter().map(|e| e.1).sum(),
        };
        expect_same(&mut self.dse[k], summary, &what)?;
        Ok(work)
    }
}

impl Workload for HimemDse {
    fn requests(&self) -> usize {
        2 * self.kernels.len()
    }

    fn request(&mut self, i: usize) -> (Duration, Result<Work, String>) {
        let k = i / 2;
        let kernel = &self.kernels[k];
        if i.is_multiple_of(2) {
            let mut mem = kernel.mem.clone();
            let (dt, (r, ret)) = timed(|| {
                let mut sys = HwSystem::for_single(
                    &kernel.func,
                    &kernel.args,
                    himem_legup_config(SimEngine::EventDriven),
                );
                let r = sys.run(&mut mem);
                (r, sys.ret_value())
            });
            let out = r
                .map_err(|e| format!("{}: memory-starved LegUp: {e}", kernel.name))
                .and_then(|stats| {
                    calls::compare(&self.kernels[k], &mem, ret, &self.references[k])?;
                    self.record_legup(k, &stats)?;
                    Ok(Work { units: 1, sim_cycles: stats.cycles })
                });
            (dt, out)
        } else {
            let (dt, r) = timed(|| {
                run_cgpa_dse(
                    kernel,
                    &self.lattice,
                    himem_env(),
                    DEFAULT_AREA_BUDGET_ALUT,
                    &self.cache,
                )
            });
            let out = match r {
                Ok(report) => self.record_dse(k, &report),
                Err(e) => Err(format!("{}: exploration: {e}", kernel.name)),
            };
            (dt, out)
        }
    }

    fn traced_request(&mut self, i: usize, t: &Tracer) -> Result<(), String> {
        let k = i / 2;
        let kernel = &self.kernels[k];
        if i.is_multiple_of(2) {
            let cfg = himem_legup_config(SimEngine::EventDriven);
            let stats = calls::run_single(t, kernel, cfg, &self.references[k])?;
            self.record_legup(k, &stats).map_err(|e| format!("taken apart, {e}"))
        } else {
            let report = {
                let s = t.span("core.dse_explore");
                let before = self.cache.stats();
                let r = run_cgpa_dse(
                    kernel,
                    &self.lattice,
                    himem_env(),
                    DEFAULT_AREA_BUDGET_ALUT,
                    &self.cache,
                )
                .map_err(|e| format!("{}: exploration: {e}", kernel.name))?;
                let after = self.cache.stats();
                s.arg("evaluated", r.evaluated.len());
                s.arg("skipped", r.skipped.len());
                s.arg("compiles", after.compiles - before.compiles);
                s.arg("cache_hits", after.hits - before.hits);
                r
            };
            self.record_dse(k, &report).map(|_| ())
        }
    }

    fn check(&mut self) -> Vec<String> {
        let mut failures = Vec::new();
        for k in 0..self.kernels.len() {
            let kernel = &self.kernels[k];
            let mut mem = kernel.mem.clone();
            let mut sys = HwSystem::for_single(
                &kernel.func,
                &kernel.args,
                himem_legup_config(SimEngine::PerCycle),
            );
            let r = sys.run(&mut mem);
            let ret = sys.ret_value();
            let verdict = r.map_err(|e| e.to_string()).and_then(|stats| {
                calls::compare(&self.kernels[k], &mem, ret, &self.references[k])?;
                self.record_legup(k, &stats)
            });
            if let Err(e) = verdict {
                failures.push(format!("per-cycle engine: {e}"));
            }
        }
        failures
    }

    fn modelled(&self) -> Vec<Modelled> {
        let legup: u64 = self.legup.iter().flatten().map(|l| l.0).sum();
        let dse = self.dse.iter().flatten();
        let explored: u64 = dse.clone().flat_map(|d| d.evaluated.iter().map(|e| e.1)).sum();
        let best: u64 = dse.clone().filter_map(|d| d.best_cycles).sum();
        let alut: u64 = dse.flat_map(|d| d.evaluated.iter().map(|e| u64::from(e.2))).sum();
        vec![
            Modelled { name: "sim_cycles_total", value: (legup + explored) as f64, unit: "cycles" },
            Modelled { name: "dse_best_cycles_total", value: best as f64, unit: "cycles" },
            Modelled { name: "alut_total", value: alut as f64, unit: "ALUT" },
        ]
    }

    fn cache_stats(&self) -> Option<CompileCacheStats> {
        Some(self.cache.stats())
    }
}

// -------------------------------------------------------------- compile

/// What one design compiled to, compared across compiles.
#[derive(Debug, Clone, PartialEq)]
struct Design {
    schedule_hash: u64,
    verilog: String,
    alut: u32,
}

/// `compile`: per kernel, worker count and placement, a cold
/// `CgpaCompiler::compile`, then `emit_verilog`, then the area estimate.
struct CompileDesigns {
    kernels: Vec<BuiltKernel>,
    reqs: Vec<(usize, CgpaConfig)>,
    expected: Vec<Option<Design>>,
}

impl CompileDesigns {
    fn new(kernels: Vec<BuiltKernel>) -> Self {
        let mut reqs = Vec::new();
        for k in 0..kernels.len() {
            for placement in [ReplicablePlacement::Pipelined, ReplicablePlacement::Replicated] {
                for workers in COMPILE_WORKERS {
                    reqs.push((k, CgpaConfig { workers, placement, ..CgpaConfig::default() }));
                }
            }
        }
        let n = reqs.len();
        CompileDesigns { kernels, reqs, expected: vec![None; n] }
    }

    fn label(&self, i: usize) -> String {
        let (k, cfg) = &self.reqs[i];
        format!("{} {} w{}", self.kernels[*k].name, placement_label(cfg.placement), cfg.workers)
    }

    fn record(&mut self, i: usize, design: Design) -> Result<(), String> {
        let what = format!("{} design (schedule hash, Verilog text or ALUTs)", self.label(i));
        expect_same(&mut self.expected[i], design, &what)
    }
}

impl Workload for CompileDesigns {
    fn requests(&self) -> usize {
        self.reqs.len()
    }

    fn request(&mut self, i: usize) -> (Duration, Result<Work, String>) {
        let (k, cfg) = self.reqs[i];
        let kernel = &self.kernels[k];
        let (dt, r) = timed(|| {
            let compiler = CgpaCompiler::new(cfg);
            compiler.compile(&kernel.func, &kernel.model).map(|c| {
                let verilog = compiler.emit_verilog(&c);
                let alut = calls::design_alut(&c);
                (c, verilog, alut)
            })
        });
        let out = match r {
            Ok((c, verilog, alut)) => self
                .record(i, Design { schedule_hash: schedule_hash(&c), verilog, alut })
                .map(|()| Work { units: 1, sim_cycles: 0 }),
            Err(e) => Err(format!("{}: {e}", self.label(i))),
        };
        (dt, out)
    }

    fn traced_request(&mut self, i: usize, t: &Tracer) -> Result<(), String> {
        let (k, cfg) = self.reqs[i];
        let kernel = &self.kernels[k];
        let c = calls::compile(t, kernel, cfg)?;
        let verilog = {
            let s = t.span("rtl.verilog");
            let v = CgpaCompiler::new(cfg).emit_verilog(&c);
            s.arg("bytes", v.len());
            v
        };
        let alut = {
            let _s = t.span("rtl.area_power");
            calls::design_alut(&c)
        };
        self.record(i, Design { schedule_hash: schedule_hash(&c), verilog, alut })
            .map_err(|e| format!("taken apart, {e}"))
    }

    fn check(&mut self) -> Vec<String> {
        // Every request already compared its design with the warm-up
        // compile's (schedule hash and Verilog text); there is no simulator
        // run to repeat under the other engine.
        Vec::new()
    }

    fn modelled(&self) -> Vec<Modelled> {
        let alut: u64 = self.expected.iter().flatten().map(|d| u64::from(d.alut)).sum();
        vec![Modelled { name: "alut_total", value: alut as f64, unit: "ALUT" }]
    }
}
