//! One run path: every way of reaching a design through `flows::run` —
//! compiling it, handing it over precompiled, walking the degradation
//! ladder, tracing, arming faults — reports the same run.

use cgpa::compiler::{CgpaCompiler, CgpaConfig, DegradationPolicy, DegradationRung};
use cgpa::flows::{run, Design, HwTuning, Run, RunResult, RunSpec};
use cgpa_kernels::{em3d, gaussblur, hash_index, kmeans, ks, BuiltKernel};
use cgpa_pipeline::ReplicablePlacement;
use cgpa_sim::cache::CacheConfig;
use cgpa_sim::{FaultClass, FaultPlan, HwConfig, HwSystem};

/// The `KernelSet::Quick` inputs of the experiments harness, seed 1.
fn quick() -> [BuiltKernel; 5] {
    [
        kmeans::build(&kmeans::Params { points: 64, clusters: 4, features: 8 }, 1),
        hash_index::build(&hash_index::Params { items: 256, buckets: 64, scatter: 24 }, 1),
        ks::build(&ks::Params { a_cells: 24, b_cells: 24, scatter: 16 }, 1),
        em3d::build(&em3d::Params::fixed(128, 128, 8, 32), 1),
        gaussblur::build(&gaussblur::Params { width: 512 }, 1),
    ]
}

/// Cycles, area, the bits of power and energy, and the statistics agree.
fn assert_same(what: &str, a: &RunResult, b: &RunResult) {
    assert_eq!(a.cycles, b.cycles, "{what}: cycles");
    assert_eq!(a.alut, b.alut, "{what}: alut");
    assert_eq!(a.power_mw.to_bits(), b.power_mw.to_bits(), "{what}: power");
    assert_eq!(a.energy_uj.to_bits(), b.energy_uj.to_bits(), "{what}: energy");
    assert_eq!(format!("{:?}", a.stats), format!("{:?}", b.stats), "{what}: stats");
}

#[test]
fn every_pipeline_design_gives_the_same_run() {
    for k in &quick() {
        let mut placements = vec![ReplicablePlacement::Pipelined];
        if matches!(k.name.as_str(), "em3d" | "gaussblur") {
            placements.push(ReplicablePlacement::Replicated);
        }
        for placement in placements {
            let what = format!("{} {placement:?}", k.name);
            let config = CgpaConfig { placement, ..CgpaConfig::default() };
            let spec = RunSpec { config, ..RunSpec::default() };
            let base = run(k, &spec).expect(&what);
            assert!(base.profile.is_some() && base.recorder.is_none(), "{what}");
            let compiled = CgpaCompiler::new(config).compile(&k.func, &k.model).expect(&what);
            let degrade = Design::Degrade(DegradationPolicy::default());
            for (how, spec) in [
                ("compiled", RunSpec { design: Design::Compiled(&compiled), ..spec.clone() }),
                ("degraded", RunSpec { design: degrade, ..spec.clone() }),
                ("traced", RunSpec { trace: true, ..spec.clone() }),
            ] {
                let r = run(k, &spec).expect(&what);
                assert_eq!(r.recorder.is_some(), spec.trace, "{what} {how}");
                assert_same(&format!("{what} {how}"), &base.result, &r.result);
                if how == "degraded" && placement == ReplicablePlacement::Pipelined {
                    assert_eq!(r.result.rung, Some(DegradationRung::Pipelined), "{what}");
                    assert_eq!(r.result.config, "CGPA(P1)", "{what}");
                }
            }
        }
    }
}

#[test]
fn sequential_design_equals_the_hand_built_single_worker() {
    let tuning = HwTuning { miss_latency: 96, ..HwTuning::default() };
    let cache = CacheConfig { banks: 1, miss_latency: 96, ..CacheConfig::default() };
    for k in &quick() {
        let r = run(k, &RunSpec { tuning, design: Design::Sequential, ..RunSpec::default() })
            .unwrap_or_else(|e| panic!("{}: {e}", k.name));
        assert!(r.profile.is_none() && r.result.config == "LegUp", "{}", k.name);
        let mut sys =
            HwSystem::for_single(&k.func, &k.args, HwConfig { cache, ..HwConfig::default() });
        let stats = sys.run(&mut k.mem.clone()).unwrap();
        assert_eq!(r.result.cycles, stats.cycles, "{}", k.name);
        assert_eq!(format!("{:?}", r.result.stats), format!("{:?}", Some(stats)), "{}", k.name);
    }
}

#[test]
fn tracing_a_faulted_run_changes_nothing() {
    let mut fired_somewhere = false;
    for k in &quick() {
        let plan = FaultPlan::single(FaultClass::StallWorker, 11);
        let spec = RunSpec { faults: Some(plan), ..RunSpec::default() };
        let plain = run(k, &spec).unwrap_or_else(|e| panic!("{}: {e}", k.name));
        let traced = run(k, &RunSpec { trace: true, ..spec.clone() }).unwrap();
        assert_same(&k.name, &plain.result, &traced.result);
        let fired = |r: &Run| r.faults.as_ref().expect("an armed run returns its plan").fired();
        assert_eq!(fired(&plain), fired(&traced), "{}", k.name);
        fired_somewhere |= !fired(&plain).is_empty();
    }
    assert!(fired_somewhere, "the stall never landed");
}
