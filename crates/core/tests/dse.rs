//! Design-space explorer acceptance tests: the explorer must match or beat
//! the hill-climb tuner on every kernel, memoization must be observable
//! (warm re-runs compile strictly less) and bit-exact (same Verilog, same
//! schedules), and the Pareto frontier must be exactly the non-dominated
//! subset for arbitrary inputs.

use cgpa::compiler::{CgpaCompiler, CgpaConfig};
use cgpa::dse::{
    dominates, pareto_frontier, schedule_hash, CompileCache, DseLattice, DseOutcome, DsePoint,
    DEFAULT_AREA_BUDGET_ALUT,
};
use cgpa::flows::{run, run_cgpa_dse, run_cgpa_tuned_auto, Design, HwTuning, RunSpec};
use cgpa_kernels::{em3d, gaussblur, hash_index, kmeans, ks, BuiltKernel};
use cgpa_pipeline::ReplicablePlacement;
use proptest::prelude::*;
use std::sync::Arc;

const SEED: u64 = 3;

/// The five paper kernels at test scale (matches `tests/full_suite.rs`).
fn suite() -> Vec<BuiltKernel> {
    vec![
        kmeans::build(&kmeans::Params { points: 48, clusters: 4, features: 6 }, SEED),
        hash_index::build(&hash_index::Params { items: 128, buckets: 32, scatter: 16 }, SEED),
        ks::build(&ks::Params { a_cells: 16, b_cells: 16, scatter: 12 }, SEED),
        em3d::build(&em3d::Params::fixed(64, 64, 6, 16), SEED),
        gaussblur::build(&gaussblur::Params { width: 256 }, SEED),
    ]
}

/// High-miss-latency regime: the tuner has real gradients to climb here,
/// so beating it is not vacuous.
fn himem() -> HwTuning {
    HwTuning { miss_latency: 400, cache_lines: 2, ..HwTuning::default() }
}

/// A P1-only lattice that is a superset of the tuner's reachable grid
/// (the tuner starts at 4 workers / 16 beats and doubles one knob at a
/// time, capped at 16 workers / 256 beats).
fn tuner_superset_lattice() -> DseLattice {
    DseLattice {
        workers: vec![4, 8, 16],
        fifo_depths: vec![16, 32, 64, 128, 256],
        placements: vec![ReplicablePlacement::Pipelined],
        ..DseLattice::default()
    }
}

#[test]
fn explorer_matches_or_beats_the_tuner_on_every_kernel() {
    let cache = CompileCache::new();
    for k in &suite() {
        let tuned = run_cgpa_tuned_auto(k, CgpaConfig::default(), himem())
            .unwrap_or_else(|e| panic!("{}: tuner failed: {e}", k.name));
        let report =
            run_cgpa_dse(k, &tuner_superset_lattice(), himem(), DEFAULT_AREA_BUDGET_ALUT, &cache)
                .unwrap_or_else(|e| panic!("{}: explorer failed: {e}", k.name));

        let best = report.best_cycles().expect("non-empty frontier");
        assert!(
            best <= tuned.best.cycles,
            "{}: explorer best {best} cycles worse than tuner best {}",
            k.name,
            tuned.best.cycles
        );

        // The frontier is drawn from the evaluated set and non-dominated
        // within it.
        for f in &report.frontier {
            assert!(
                !report.evaluated.iter().any(|o| dominates(o, f)),
                "{}: frontier point {} is dominated",
                k.name,
                f.point.label()
            );
        }

        // These kernels are tiny; the recommendation must fit the DE4.
        let rec = report.recommended.as_ref().expect("a recommendation");
        assert!(
            rec.alut <= report.area_budget_alut,
            "{}: recommended {} ALUTs over budget",
            k.name,
            rec.alut
        );
    }
}

#[test]
fn warm_cache_performs_strictly_fewer_compiles() {
    let k = kmeans::build(&kmeans::Params { points: 48, clusters: 4, features: 6 }, SEED);
    // Sweep the cache-line axis and include an invalid zero geometry: those
    // points must be skipped up front, not crash the exploration.
    let lattice = DseLattice {
        workers: vec![2, 4],
        fifo_depths: vec![16, 64],
        cache_lines: vec![0, 256],
        placements: vec![ReplicablePlacement::Pipelined],
        ..DseLattice::default()
    };
    let cache = CompileCache::new();

    let cold = run_cgpa_dse(&k, &lattice, HwTuning::default(), DEFAULT_AREA_BUDGET_ALUT, &cache)
        .expect("cold exploration");
    assert!(cold.compiles > 0, "cold run must compile something");
    assert_eq!(cold.cache_hits, 0, "cold run cannot hit an empty cache");
    // 2 workers × 2 fifos × lines=0 → four invalid-geometry skips.
    assert_eq!(cold.skipped.len(), 4, "skipped: {:?}", cold.skipped);
    assert!(
        cold.skipped.iter().all(|(p, why)| p.cache_lines == 0 && why.contains("lines")),
        "skips should name the zero-lines geometry: {:?}",
        cold.skipped
    );
    // Memoization within one run: 2 distinct worker counts, 4 valid points.
    assert_eq!(cold.compiles, 2);
    assert_eq!(cold.evaluated.len(), 4);

    let warm = run_cgpa_dse(&k, &lattice, HwTuning::default(), DEFAULT_AREA_BUDGET_ALUT, &cache)
        .expect("warm exploration");
    assert_eq!(warm.compiles, 0, "warm run must be served entirely from cache");
    assert!(warm.compiles < cold.compiles);
    assert!(warm.cache_hits > 0);
    assert_eq!(warm.evaluated.len(), cold.evaluated.len());
    assert_eq!(warm.best_cycles(), cold.best_cycles(), "cached designs must behave identically");
}

#[test]
fn memoized_compile_is_bit_identical_to_fresh() {
    let cache = CompileCache::new();
    for k in &suite() {
        let cfg = CgpaConfig::default();
        let first = cache.get_or_compile(&k.func, &k.model, cfg).expect("compile");
        let second = cache.get_or_compile(&k.func, &k.model, cfg).expect("cached compile");
        assert!(Arc::ptr_eq(&first, &second), "{}: second lookup must be a cache hit", k.name);

        let compiler = CgpaCompiler::new(cfg);
        let fresh = compiler.compile(&k.func, &k.model).expect("fresh compile");
        assert_eq!(
            compiler.emit_verilog(&first),
            compiler.emit_verilog(&fresh),
            "{}: memoized Verilog differs from fresh",
            k.name
        );
        assert_eq!(
            schedule_hash(&first),
            schedule_hash(&fresh),
            "{}: memoized schedule differs from fresh",
            k.name
        );
    }
    let stats = cache.stats();
    assert_eq!(stats.compiles as usize, suite().len());
    assert_eq!(stats.hits as usize, suite().len());
}

#[test]
fn every_explored_point_equals_a_standalone_run() {
    // The explorer verifies every point against one shared reference; a
    // standalone run computes its own. Nothing else may differ.
    let k = &suite()[3]; // em3d: S-P under P1, P under P2
    let lattice = DseLattice {
        workers: vec![1, 4],
        fifo_depths: vec![16, 64],
        placements: vec![ReplicablePlacement::Pipelined, ReplicablePlacement::Replicated],
        ..DseLattice::default()
    };
    let env = himem();
    let cache = CompileCache::new();
    let report = run_cgpa_dse(k, &lattice, env, DEFAULT_AREA_BUDGET_ALUT, &cache).unwrap();
    assert_eq!(report.evaluated.len(), 8, "skipped: {:?}", report.skipped);
    for o in &report.evaluated {
        let config = o.point.config(&CgpaConfig::default());
        let compiled = CgpaCompiler::new(config).compile(&k.func, &k.model).unwrap();
        let (tuning, design) = (o.point.tuning(&env), Design::Compiled(&compiled));
        let spec = RunSpec { config, tuning, design, ..RunSpec::default() };
        let r = run(k, &spec).unwrap().result;
        let label = o.point.label();
        assert_eq!(o.cycles, r.cycles, "{label}");
        assert_eq!(o.alut, r.alut, "{label}");
        assert_eq!(o.power_mw.to_bits(), r.power_mw.to_bits(), "{label}");
        assert_eq!(o.energy_uj.to_bits(), r.energy_uj.to_bits(), "{label}");
    }
}

fn outcome(cycles: u64, alut: u32, power: f64) -> DseOutcome {
    DseOutcome {
        point: DsePoint {
            workers: 1,
            placement: ReplicablePlacement::Pipelined,
            fifo_depth_beats: 16,
            cache_lines: 512,
            cache_banks: None,
        },
        cycles,
        alut,
        power_mw: power,
        energy_uj: 0.0,
        edp: 0.0,
    }
}

proptest! {
    /// The frontier is exactly the non-dominated subset: no frontier point
    /// is dominated by any input, and every input is either on the frontier
    /// or dominated by some frontier point.
    #[test]
    fn pareto_frontier_has_no_dominated_points(
        raw in proptest::collection::vec((0u64..1000, 0u32..1000, 0u16..1000), 1..40)
    ) {
        let all: Vec<DseOutcome> =
            raw.iter().map(|&(c, a, p)| outcome(c, a, f64::from(p))).collect();
        let frontier = pareto_frontier(&all);
        prop_assert!(!frontier.is_empty());
        for f in &frontier {
            prop_assert!(
                !all.iter().any(|o| dominates(o, f)),
                "dominated point on frontier: {f:?}"
            );
        }
        for o in &all {
            let covered = frontier.iter().any(|f| {
                (f.cycles == o.cycles && f.alut == o.alut && f.power_mw == o.power_mw)
                    || dominates(f, o)
            });
            prop_assert!(covered, "point neither on frontier nor dominated: {o:?}");
        }
    }
}
