//! Engine differential matrix: the event-driven scheduler must be
//! indistinguishable from the per-cycle reference stepper — bit-identical
//! liveouts (each flow already verifies memory and return value against the
//! functional reference), identical cycle counts, and identical per-worker
//! statistics — across every kernel, placement, the sequential fallback,
//! the memory-starved and shallow-FIFO regimes, and under injected timing
//! faults.

use cgpa_repro::cgpa::compiler::CgpaConfig;
use cgpa_repro::cgpa::flows::{run, Design, FlowError, HwTuning, Run, RunResult, RunSpec};
use cgpa_repro::kernels::{em3d, gaussblur, hash_index, kmeans, ks, BuiltKernel};
use cgpa_repro::pipeline::ReplicablePlacement;
use cgpa_repro::sim::{FaultClass, FaultPlan, SimEngine};

fn small_suite() -> Vec<BuiltKernel> {
    vec![
        kmeans::build(&kmeans::Params { points: 48, clusters: 4, features: 6 }, 9),
        hash_index::build(&hash_index::Params { items: 128, buckets: 32, scatter: 16 }, 9),
        ks::build(&ks::Params { a_cells: 16, b_cells: 16, scatter: 12 }, 9),
        em3d::build(&em3d::Params::fixed(64, 64, 6, 16), 9),
        gaussblur::build(&gaussblur::Params { width: 256 }, 9),
    ]
}

/// Kernels the paper reports a P2 (replicated) variant for.
fn has_p2(name: &str) -> bool {
    matches!(name, "em3d" | "gaussblur")
}

/// `spec` under the event-driven engine, then under the per-cycle reference.
fn on_both_engines(k: &BuiltKernel, spec: &RunSpec) -> [Result<Run, FlowError>; 2] {
    [SimEngine::EventDriven, SimEngine::PerCycle].map(|engine| {
        run(k, &RunSpec { tuning: HwTuning { engine, ..spec.tuning }, ..spec.clone() })
    })
}

/// Both engines run `spec` cleanly and agree (see [`assert_same`]).
fn assert_engines_agree(k: &BuiltKernel, label: &str, spec: &RunSpec) -> [Run; 2] {
    let [ev, rf] =
        on_both_engines(k, spec).map(|r| r.unwrap_or_else(|e| panic!("{}: {label}: {e}", k.name)));
    assert_same(&k.name, label, &ev.result, &rf.result);
    [ev, rf]
}

/// Every engine-independent observable must match. `skipped_cycles` is the
/// one deliberately engine-dependent diagnostic and is excluded.
fn assert_same(kernel: &str, label: &str, ev: &RunResult, rf: &RunResult) {
    assert_eq!(ev.cycles, rf.cycles, "{kernel}/{label}: cycle counts differ");
    assert_eq!(ev.config, rf.config, "{kernel}/{label}: config labels differ");
    assert_eq!(ev.alut, rf.alut, "{kernel}/{label}: area differs");
    let (Some(es), Some(rs)) = (&ev.stats, &rf.stats) else {
        panic!("{kernel}/{label}: missing stats");
    };
    assert_eq!(es.cycles, rs.cycles, "{kernel}/{label}: stats.cycles differ");
    assert_eq!(es.workers.len(), rs.workers.len(), "{kernel}/{label}: worker counts differ");
    // Bucket-by-bucket so a mismatch names the worker and the stall cause
    // rather than dumping two whole stat vectors.
    for (w, (e, r)) in es.workers.iter().zip(&rs.workers).enumerate() {
        assert_eq!(e.busy, r.busy, "{kernel}/{label}: worker {w} busy differs");
        assert_eq!(
            e.stall_mem_read, r.stall_mem_read,
            "{kernel}/{label}: worker {w} stall_mem_read differs"
        );
        assert_eq!(
            e.stall_mem_write, r.stall_mem_write,
            "{kernel}/{label}: worker {w} stall_mem_write differs"
        );
        assert_eq!(
            e.queue_waits, r.queue_waits,
            "{kernel}/{label}: worker {w} per-queue waits differ"
        );
        assert_eq!(e.idle, r.idle, "{kernel}/{label}: worker {w} idle differs");
        assert_eq!(e.iterations, r.iterations, "{kernel}/{label}: worker {w} iterations differ");
        // The buckets are a partition of simulated time: they must sum to
        // the run's cycle count in both engines.
        assert_eq!(
            e.total(),
            es.cycles,
            "{kernel}/{label}: worker {w} buckets do not sum to cycles (event)"
        );
        assert_eq!(
            r.total(),
            rs.cycles,
            "{kernel}/{label}: worker {w} buckets do not sum to cycles (reference)"
        );
    }
    assert_eq!(es.queues, rs.queues, "{kernel}/{label}: queue stats differ");
    // Occupancy histograms are time-weighted: every channel's weights must
    // also sum to the run's cycle count.
    for q in &es.queues {
        for (ch, hist) in q.occupancy_hist.iter().enumerate() {
            assert_eq!(
                hist.iter().sum::<u64>(),
                es.cycles,
                "{kernel}/{label}: queue {} channel {ch} histogram mass != cycles",
                q.name
            );
        }
    }
    assert_eq!(es.fifo_beats, rs.fifo_beats, "{kernel}/{label}: fifo beats differ");
    assert_eq!(es.cache, rs.cache, "{kernel}/{label}: cache stats differ");
}

#[test]
fn p1_matches_reference_on_all_kernels() {
    for k in small_suite() {
        assert_engines_agree(&k, "P1", &RunSpec::default());
    }
}

#[test]
fn p2_matches_reference_where_applicable() {
    for k in small_suite().into_iter().filter(|k| has_p2(&k.name)) {
        let config =
            CgpaConfig { placement: ReplicablePlacement::Replicated, ..CgpaConfig::default() };
        assert_engines_agree(&k, "P2", &RunSpec { config, ..RunSpec::default() });
    }
}

#[test]
fn stress_regimes_match_reference() {
    // The regimes where sleeping workers and FIFO wake-ups differ most from
    // per-cycle stepping: 400-cycle misses on a 2-line cache keep workers
    // asleep on memory for most of the run, and 2-beat FIFOs block
    // producers and consumers on nearly every handshake.
    let regimes = [
        ("memory-starved", HwTuning { miss_latency: 400, cache_lines: 2, ..HwTuning::default() }),
        ("shallow-fifo", HwTuning { fifo_depth_beats: 2, ..HwTuning::default() }),
    ];
    for k in small_suite() {
        let mut placements = vec![ReplicablePlacement::Pipelined];
        if has_p2(&k.name) {
            placements.push(ReplicablePlacement::Replicated);
        }
        for placement in placements {
            let config = CgpaConfig { placement, ..CgpaConfig::default() };
            for (label, tuning) in regimes {
                let spec = RunSpec { config, tuning, ..RunSpec::default() };
                assert_engines_agree(&k, &format!("{label} {placement:?}"), &spec);
            }
        }
    }
}

#[test]
fn sequential_fallback_matches_reference() {
    for k in small_suite() {
        assert_engines_agree(
            &k,
            "seq",
            &RunSpec { design: Design::Sequential, ..RunSpec::default() },
        );
    }
}

#[test]
fn timing_faults_match_reference() {
    // Timing-only fault classes perturb scheduling without corrupting data:
    // the run must still verify, and both engines must agree on cycles,
    // stats, and which faults actually fired.
    let classes =
        [FaultClass::StallWorker, FaultClass::MemLatencyBurst, FaultClass::PortContention];
    for k in small_suite() {
        for seed in [1u64, 23] {
            let spec =
                RunSpec { faults: Some(FaultPlan::seeded(&classes, seed)), ..RunSpec::default() };
            let [ev, rf] = assert_engines_agree(&k, &format!("faults(seed {seed})"), &spec);
            let fired = |r: &Run| r.faults.as_ref().map(|p| p.fired());
            assert_eq!(fired(&ev), fired(&rf), "{}: fired faults differ (seed {seed})", k.name);
        }
    }
}

#[test]
fn corrupting_faults_fail_identically() {
    // Corrupting classes are caught by the protection hardware; both engines
    // must detect at the same cycle with the same diagnosis (or both pass if
    // the fault lands somewhere harmless).
    let classes = [FaultClass::BitFlip, FaultClass::DropBeat, FaultClass::DuplicateBeat];
    for k in small_suite() {
        for seed in [5u64, 11] {
            let spec =
                RunSpec { faults: Some(FaultPlan::seeded(&classes, seed)), ..RunSpec::default() };
            match on_both_engines(&k, &spec) {
                [Ok(ev), Ok(rf)] => {
                    assert_same(&k.name, &format!("corrupt(seed {seed})"), &ev.result, &rf.result);
                }
                [Err(e), Err(r)] => {
                    assert_eq!(
                        e.to_string(),
                        r.to_string(),
                        "{}: engines diagnose differently (seed {seed})",
                        k.name
                    );
                }
                [ev, rf] => panic!(
                    "{}: engines disagree on success (seed {seed}): event={:?} reference={:?}",
                    k.name,
                    ev.map(|r| r.result.cycles),
                    rf.map(|r| r.result.cycles)
                ),
            }
        }
    }
}
