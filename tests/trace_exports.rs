//! The simulator records one event stream and exports it twice: as a VCD
//! waveform and as Chrome-trace events. On one traced pipeline run the two
//! exports must tell the same story.

use std::collections::HashMap;

use cgpa_repro::cgpa::compiler::{CgpaCompiler, CgpaConfig};
use cgpa_repro::kernels::em3d;
use cgpa_repro::obs::{Event, Recorder};
use cgpa_repro::sim::{
    run_with_accelerator, HwConfig, HwSystem, StallCause, SystemStats, Trace, TraceEvent,
};

/// One traced CGPA P1 run of a small em3d: its statistics and its stream.
fn traced_em3d() -> (SystemStats, Trace) {
    let k = em3d::build(&em3d::Params::fixed(64, 64, 6, 16), 9);
    let compiled = CgpaCompiler::new(CgpaConfig::default()).compile(&k.func, &k.model).unwrap();
    let pm = &compiled.pipeline;
    let mut mem = k.mem.clone();
    let mut runs = Vec::new();
    run_with_accelerator(&pm.parent, &k.args, &mut mem, 4_000_000_000, &mut |_, live_ins, mem| {
        let mut sys = HwSystem::for_pipeline(pm, live_ins, HwConfig::default());
        sys.enable_trace();
        let stats = sys.run(mem).map_err(|e| e.to_string())?;
        runs.push((stats, sys.take_trace().expect("an armed trace")));
        Ok(sys.liveouts().to_vec())
    })
    .unwrap();
    assert_eq!(runs.len(), 1, "em3d invokes its accelerator once");
    runs.pop().unwrap()
}

/// Every `q<i>_beats` value change after the `$dumpvars` block, as
/// `(cycle, queue, beats)`.
fn vcd_queue_changes(vcd: &str) -> Vec<(u64, u32, u32)> {
    let mut ids: HashMap<&str, u32> = HashMap::new();
    for line in vcd.lines().filter(|l| l.starts_with("$var")) {
        let f: Vec<&str> = line.split_whitespace().collect();
        if let Some(q) = f[4].strip_prefix('q').and_then(|r| r.strip_suffix("_beats")) {
            ids.insert(f[3], q.parse().unwrap());
        }
    }
    let body = vcd.split_once("$dumpvars").unwrap().1.split_once("$end\n").unwrap().1;
    let mut cycle = 0;
    let mut out = Vec::new();
    for line in body.lines() {
        if let Some(c) = line.strip_prefix('#') {
            cycle = c.parse().unwrap();
        } else if let Some((value, id)) = line.strip_prefix('b').and_then(|l| l.split_once(' ')) {
            if let Some(&q) = ids.get(id) {
                out.push((cycle, q, u32::from_str_radix(value, 2).unwrap()));
            }
        }
    }
    out
}

#[test]
fn vcd_and_chrome_exports_agree() {
    let (stats, trace) = traced_em3d();
    let vcd = trace.to_vcd("em3d");
    let rec = Recorder::new();
    trace.record_into(&rec, 2);
    let events = rec.events();

    // Counter samples, `(cycle, queue, beats)`: first one per queue at cycle
    // 0 (the empty queues `$dumpvars` shows), then one per change, which must
    // be exactly the VCD's `q<i>_beats` changes, cycle for cycle.
    let samples: Vec<(u64, u32, u32)> = events
        .iter()
        .filter_map(|e| match e {
            Event::Counter { ts, name, value, .. } => {
                let q = name.strip_prefix('q')?.split_once(' ')?.0.parse().ok()?;
                Some((*ts, q, *value as u32))
            }
            _ => None,
        })
        .collect();
    let queues = trace.queue_names.len();
    assert!(queues > 0, "em3d P1 has queues");
    let (initial, changes) = samples.split_at(queues);
    let empty: Vec<(u64, u32, u32)> = (0..queues as u32).map(|q| (0, q, 0)).collect();
    assert_eq!(initial, empty);
    let vcd_changes = vcd_queue_changes(&vcd);
    assert!(!vcd_changes.is_empty(), "the FIFOs carry data");
    assert_eq!(changes, vcd_changes.as_slice());

    // Iteration spans: `iter 0` opens at cycle 0, every back edge of a
    // running worker opens one more, and nothing else does, so each worker
    // has exactly `WorkerStats::iterations + 1` spans, all closed.
    for (w, ws) in stats.workers.iter().enumerate() {
        let tid = w as u32 + 1;
        let (mut begins, mut ends) = (0, 0);
        for e in &events {
            match e {
                Event::Begin { tid: t, name, .. } if *t == tid && name.starts_with("iter ") => {
                    begins += 1;
                }
                Event::End { tid: t, .. } if *t == tid => ends += 1,
                _ => {}
            }
        }
        assert_eq!(begins as u64, ws.iterations + 1, "worker {w}: iter spans");
        assert_eq!(ends, begins, "worker {w}: every iter span closes");
    }
}

#[test]
fn chrome_export_replays_spans_and_counters() {
    let mut t = Trace::new("toy", vec!["a".into(), "b w0".into()], vec!["x".into()]);
    for e in [
        TraceEvent::State { cycle: 0, worker: 0, state: 0 },
        TraceEvent::QueueOccupancy { cycle: 3, queue: 0, beats: 1 },
        TraceEvent::Stall { cycle: 3, worker: 1, cause: StallCause::QueuePop },
        TraceEvent::Iteration { cycle: 5, worker: 0 },
        TraceEvent::Iteration { cycle: 7, worker: 0 },
        TraceEvent::Finish { cycle: 9, worker: 0 },
        TraceEvent::Finish { cycle: 9, worker: 1 },
    ] {
        t.record(e);
    }
    // A cycle that carries only a back edge prints no VCD timestamp.
    assert!(!t.to_vcd("toy").contains("#7"));
    let rec = Recorder::new();
    t.record_into(&rec, 3);
    let events: Vec<String> = rec
        .events()
        .into_iter()
        .map(|e| match e {
            Event::ProcessName { pid, name } => format!("P{pid} {name}"),
            Event::ThreadName { tid, name, .. } => format!("T{tid} {name}"),
            Event::Begin { tid, ts, name, .. } => format!("B{tid}@{ts} {name}"),
            Event::End { tid, ts, .. } => format!("E{tid}@{ts}"),
            Event::Counter { ts, name, value, .. } => format!("C@{ts} {name}={value}"),
        })
        .collect();
    let expected = [
        "P3 sim toy",
        "T0 pipeline",
        "T1 a",
        "T2 b w0",
        "B0@0 run toy",
        "B1@0 iter 0",
        "B2@0 iter 0",
        "C@0 q0 x beats=0",
        "C@3 q0 x beats=1",
        "E1@6",
        "B1@6 iter 1",
        "E1@8",
        "B1@8 iter 2",
        "E1@10",
        "E2@10",
        "E0@10",
    ];
    assert_eq!(events, expected);
}
