//! Cross-crate integration: every benchmark kernel, every flow, with
//! verification and the paper's qualitative orderings.

use cgpa_repro::cgpa::compiler::CgpaConfig;
use cgpa_repro::cgpa::flows::{run_cgpa, run_legup, run_mips};
use cgpa_repro::cgpa::report::geomean;
use cgpa_repro::kernels::{em3d, gaussblur, hash_index, kmeans, ks, BuiltKernel};
use cgpa_repro::pipeline::ReplicablePlacement;

fn small_suite() -> Vec<BuiltKernel> {
    vec![
        kmeans::build(&kmeans::Params { points: 48, clusters: 4, features: 6 }, 3),
        hash_index::build(&hash_index::Params { items: 128, buckets: 32, scatter: 16 }, 3),
        ks::build(&ks::Params { a_cells: 16, b_cells: 16, scatter: 12 }, 3),
        em3d::build(&em3d::Params::fixed(64, 64, 6, 16), 3),
        gaussblur::build(&gaussblur::Params { width: 256 }, 3),
    ]
}

#[test]
fn every_kernel_runs_and_verifies_under_every_flow() {
    for k in small_suite() {
        let mips = run_mips(&k).unwrap_or_else(|e| panic!("{}: mips: {e}", k.name));
        let legup = run_legup(&k).unwrap_or_else(|e| panic!("{}: legup: {e}", k.name));
        let cgpa =
            run_cgpa(&k, CgpaConfig::default()).unwrap_or_else(|e| panic!("{}: cgpa: {e}", k.name));
        assert!(mips.cycles > 0 && legup.cycles > 0 && cgpa.cycles > 0);
        // The paper's qualitative ordering: specialization beats software,
        // pipelining beats sequential specialization.
        assert!(
            mips.cycles > legup.cycles,
            "{}: LegUp should beat MIPS ({} vs {})",
            k.name,
            legup.cycles,
            mips.cycles
        );
        assert!(
            legup.cycles > cgpa.cycles,
            "{}: CGPA should beat LegUp ({} vs {})",
            k.name,
            cgpa.cycles,
            legup.cycles
        );
    }
}

#[test]
fn headline_speedup_is_in_the_papers_regime() {
    // Paper: CGPA over LegUp in 3.0x–3.8x, geomean 3.3x. Model-based
    // reproduction tolerance: every kernel in [1.5, 6], geomean in [2.5, 4.5].
    let ratios: Vec<f64> = small_suite()
        .iter()
        .map(|k| {
            let legup = run_legup(k).expect("legup");
            let cgpa = run_cgpa(k, CgpaConfig::default()).expect("cgpa");
            legup.cycles as f64 / cgpa.cycles as f64
        })
        .collect();
    for (r, k) in ratios.iter().zip(small_suite()) {
        assert!((1.5..6.0).contains(r), "{}: CGPA/LegUp = {r:.2}", k.name);
    }
    let g = geomean(&ratios).expect("ratios are positive");
    assert!((2.5..4.5).contains(&g), "geomean CGPA/LegUp = {g:.2}");
}

#[test]
fn area_and_energy_land_in_the_papers_regime() {
    // Paper: ALUT ratio ~4.1x, energy overhead geomean ~1.2x.
    let mut alut = Vec::new();
    let mut energy = Vec::new();
    for k in small_suite() {
        let legup = run_legup(&k).expect("legup");
        let cgpa = run_cgpa(&k, CgpaConfig::default()).expect("cgpa");
        alut.push(f64::from(cgpa.alut) / f64::from(legup.alut));
        energy.push(cgpa.energy_uj / legup.energy_uj);
    }
    let a = geomean(&alut).expect("ratios are positive");
    let e = geomean(&energy).expect("ratios are positive");
    assert!((3.0..7.0).contains(&a), "ALUT ratio geomean = {a:.2}");
    assert!((0.9..1.8).contains(&e), "energy overhead geomean = {e:.2}");
}

#[test]
fn p1_beats_p2_on_both_tradeoff_kernels() {
    for k in [
        em3d::build(&em3d::Params::fixed(64, 64, 6, 16), 3),
        gaussblur::build(&gaussblur::Params { width: 256 }, 3),
    ] {
        let p1 = run_cgpa(&k, CgpaConfig::default()).expect("p1");
        let p2 = run_cgpa(
            &k,
            CgpaConfig { placement: ReplicablePlacement::Replicated, ..CgpaConfig::default() },
        )
        .expect("p2");
        assert!(
            p1.cycles < p2.cycles,
            "{}: P1 ({}) should beat P2 ({})",
            k.name,
            p1.cycles,
            p2.cycles
        );
        assert!(p1.energy_uj < p2.energy_uj, "{}: P1 should use less energy", k.name);
    }
}

#[test]
fn worker_scaling_is_monotone_up_to_the_memory_wall() {
    // Doubling workers never makes CGPA meaningfully slower (a small
    // tolerance covers FIFO/selector second-order effects).
    for k in small_suite() {
        let mut last = u64::MAX;
        for w in [1u32, 2, 4] {
            let r = run_cgpa(&k, CgpaConfig { workers: w, ..CgpaConfig::default() })
                .unwrap_or_else(|e| panic!("{} x{w}: {e}", k.name));
            assert!(
                (r.cycles as f64) < last as f64 * 1.05,
                "{}: {w} workers regressed ({} -> {})",
                k.name,
                last,
                r.cycles
            );
            last = r.cycles;
        }
    }
}

#[test]
fn deterministic_across_repeat_runs() {
    let k = em3d::build(&em3d::Params::fixed(50, 50, 5, 8), 9);
    let a = run_cgpa(&k, CgpaConfig::default()).expect("run a");
    let b = run_cgpa(&k, CgpaConfig::default()).expect("run b");
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.alut, b.alut);
    assert!((a.power_mw - b.power_mw).abs() < 1e-9);
}

#[test]
fn em3d_tolerates_slow_memory_better_than_sequential_hls() {
    // The paper's §2.2 claim: FIFOs confine variable latency to one stage.
    use cgpa_repro::cgpa::flows::{run, run_cgpa_tuned, Design, HwTuning, RunSpec};

    let k = em3d::build(&em3d::Params::fixed(96, 96, 6, 24), 5);
    let legup_at = |ml: u32| {
        let tuning = HwTuning { miss_latency: ml, ..HwTuning::default() };
        let spec = RunSpec { tuning, design: Design::Sequential, ..RunSpec::default() };
        run(&k, &spec).expect("legup run").result.cycles as f64
    };
    let cgpa_at = |ml: u32| {
        run_cgpa_tuned(
            &k,
            CgpaConfig::default(),
            HwTuning { miss_latency: ml, ..HwTuning::default() },
        )
        .expect("cgpa run")
        .cycles as f64
    };
    let legup_slowdown = legup_at(96) / legup_at(12);
    let cgpa_slowdown = cgpa_at(96) / cgpa_at(12);
    assert!(
        cgpa_slowdown < legup_slowdown,
        "decoupling should hide latency: CGPA {cgpa_slowdown:.2}x vs LegUp {legup_slowdown:.2}x"
    );
}

#[test]
fn shallow_fifos_only_cost_a_little() {
    use cgpa_repro::cgpa::flows::{run_cgpa_tuned, HwTuning};
    let k = em3d::build(&em3d::Params::fixed(64, 64, 6, 16), 5);
    let deep = run_cgpa_tuned(
        &k,
        CgpaConfig::default(),
        HwTuning { fifo_depth_beats: 16, ..HwTuning::default() },
    )
    .expect("deep");
    let shallow = run_cgpa_tuned(
        &k,
        CgpaConfig::default(),
        HwTuning { fifo_depth_beats: 4, ..HwTuning::default() },
    )
    .expect("shallow");
    // Depth 4 retains most of the benefit (within 25% of depth 16).
    assert!(
        (shallow.cycles as f64) < deep.cycles as f64 * 1.25,
        "shallow {} vs deep {}",
        shallow.cycles,
        deep.cycles
    );
}
