//! The simulator's event stream and its two exporters.
//!
//! A [`Trace`] is the one record of what a hardware run did: each worker's
//! FSM state, stall cause, iteration back edges and finish, plus aggregate
//! FIFO occupancy per queue, as typed changes in cycle order. The pipeline
//! fill/drain behaviour the paper describes in §2.2 (the sequential stage
//! running ahead, workers stalling on empty FIFOs) is directly visible in
//! either export:
//!
//! - [`Trace::to_vcd`] renders a Value Change Dump, viewable in GTKWave or
//!   any waveform viewer;
//! - [`Trace::record_into`] replays the stream into a `cgpa-obs`
//!   [`Recorder`] as Chrome-trace spans and counters (Perfetto).
//!
//! Both read the same events, so the waveform and the Chrome trace cannot
//! disagree. Either engine of [`HwSystem::run`](crate::hw::HwSystem::run)
//! records the stream. The event-driven engine does not evaluate sleeping
//! workers, but every recorded change lands on a cycle it evaluates, so
//! both engines record the same events.

use cgpa_obs::Recorder;
use std::fmt::Write as _;

/// Why a worker is not retiring work this cycle, as shown in the
/// `w{n}_cause` waveform variable. Mirrors the stall-attribution buckets
/// of [`WorkerStats`](crate::stats::WorkerStats).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallCause {
    /// Executing or burning state latency (not stalled).
    Busy,
    /// Waiting on a load response.
    MemRead,
    /// Blocked pushing into a full queue.
    QueuePush,
    /// Starved popping from an empty queue.
    QueuePop,
    /// Clock-gated by an injected stall window.
    Frozen,
}

impl StallCause {
    /// Numeric code emitted into the VCD stream.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            StallCause::Busy => 0,
            StallCause::MemRead => 1,
            StallCause::QueuePush => 2,
            StallCause::QueuePop => 3,
            StallCause::Frozen => 4,
        }
    }
}

/// One sampled change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A worker moved to a new FSM state.
    State {
        /// Cycle of the change.
        cycle: u64,
        /// Worker index.
        worker: u32,
        /// New state index.
        state: u32,
    },
    /// A worker raised its finish signal.
    Finish {
        /// Cycle of the change.
        cycle: u64,
        /// Worker index.
        worker: u32,
    },
    /// A queue's total occupancy (beats, summed over channels) changed.
    QueueOccupancy {
        /// Cycle of the change.
        cycle: u64,
        /// Queue index.
        queue: u32,
        /// New occupancy in beats.
        beats: u32,
    },
    /// A worker's stall classification changed.
    Stall {
        /// Cycle of the change.
        cycle: u64,
        /// Worker index.
        worker: u32,
        /// New classification.
        cause: StallCause,
    },
    /// A worker that has not finished took an iteration back edge. Not part
    /// of the waveform; it splits the Chrome export's `iter` spans.
    Iteration {
        /// Cycle of the back edge.
        cycle: u64,
        /// Worker index.
        worker: u32,
    },
}

/// A recorded run.
///
/// ```
/// use cgpa_sim::trace::{Trace, TraceEvent};
///
/// let mut t = Trace::new("acc", vec!["acc".into()], Vec::new());
/// t.record(TraceEvent::State { cycle: 0, worker: 0, state: 0 });
/// t.record(TraceEvent::Finish { cycle: 8, worker: 0 });
/// let vcd = t.to_vcd("acc");
/// assert!(vcd.contains("$var wire 1"));
/// assert!(vcd.contains("#8"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Events in nondecreasing cycle order.
    pub events: Vec<TraceEvent>,
    /// Design name, for the Chrome export's process and run-span labels.
    pub design: String,
    /// Display label per traced worker (task name, plus the worker index
    /// for parallel-stage instances).
    pub worker_labels: Vec<String>,
    /// Name per traced queue.
    pub queue_names: Vec<String>,
}

impl Trace {
    /// Create an empty trace for the given topology.
    #[must_use]
    pub fn new(
        design: impl Into<String>,
        worker_labels: Vec<String>,
        queue_names: Vec<String>,
    ) -> Self {
        Trace { events: Vec::new(), design: design.into(), worker_labels, queue_names }
    }

    /// Record an event (cycles must be nondecreasing).
    pub fn record(&mut self, e: TraceEvent) {
        debug_assert!(
            self.events.last().is_none_or(|last| cycle_of(*last) <= cycle_of(e)),
            "trace events must be recorded in cycle order"
        );
        self.events.push(e);
    }

    /// Cycles a given worker spent in each visited state (useful for
    /// hot-state analysis without a waveform viewer).
    #[must_use]
    pub fn state_histogram(&self, worker: u32, total_cycles: u64) -> Vec<(u32, u64)> {
        let mut cur: Option<(u32, u64)> = None;
        let mut out: Vec<(u32, u64)> = Vec::new();
        let mut bump = |state: u32, dwell: u64| {
            if let Some(slot) = out.iter_mut().find(|(s, _)| *s == state) {
                slot.1 += dwell;
            } else {
                out.push((state, dwell));
            }
        };
        for e in &self.events {
            if let TraceEvent::State { cycle, worker: w, state } = *e {
                if w != worker {
                    continue;
                }
                if let Some((s, since)) = cur {
                    bump(s, cycle - since);
                }
                cur = Some((state, cycle));
            }
        }
        if let Some((s, since)) = cur {
            bump(s, total_cycles.saturating_sub(since));
        }
        out.sort_by_key(|&(_, dwell)| std::cmp::Reverse(dwell));
        out
    }

    /// Render the trace as a VCD document.
    #[must_use]
    pub fn to_vcd(&self, design_name: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "$date generated by cgpa-sim $end");
        let _ = writeln!(out, "$timescale 5ns $end"); // 200 MHz
        let _ = writeln!(out, "$scope module {design_name} $end");
        let mut vars = 0;
        let mut code = || {
            vars += 1;
            vcd_id(vars - 1)
        };
        let mut state_ids = Vec::new();
        let mut fin_ids = Vec::new();
        let mut cause_ids = Vec::new();
        let mut queue_ids = Vec::new();
        for w in 0..self.worker_labels.len() {
            let c = code();
            let _ = writeln!(out, "$var integer 16 {c} w{w}_state $end");
            state_ids.push(c);
            let f = code();
            let _ = writeln!(out, "$var wire 1 {f} w{w}_finish $end");
            fin_ids.push(f);
            let s = code();
            let _ = writeln!(out, "$var integer 8 {s} w{w}_cause $end");
            cause_ids.push(s);
        }
        for q in 0..self.queue_names.len() {
            let c = code();
            let _ = writeln!(out, "$var integer 16 {c} q{q}_beats $end");
            queue_ids.push(c);
        }
        let _ = writeln!(out, "$upscope $end");
        let _ = writeln!(out, "$enddefinitions $end");
        let _ = writeln!(out, "$dumpvars");
        for ((s, f), c) in state_ids.iter().zip(&fin_ids).zip(&cause_ids) {
            let _ = writeln!(out, "b0 {s}");
            let _ = writeln!(out, "0{f}");
            let _ = writeln!(out, "b0 {c}");
        }
        for qid in &queue_ids {
            let _ = writeln!(out, "b0 {qid}");
        }
        let _ = writeln!(out, "$end");
        let mut last_cycle = u64::MAX;
        for e in &self.events {
            if let TraceEvent::Iteration { .. } = e {
                continue;
            }
            let cycle = cycle_of(*e);
            if cycle != last_cycle {
                let _ = writeln!(out, "#{cycle}");
                last_cycle = cycle;
            }
            match *e {
                TraceEvent::State { worker, state, .. } => {
                    let _ = writeln!(out, "b{:b} {}", state, state_ids[worker as usize]);
                }
                TraceEvent::Finish { worker, .. } => {
                    let _ = writeln!(out, "1{}", fin_ids[worker as usize]);
                }
                TraceEvent::QueueOccupancy { queue, beats, .. } => {
                    let _ = writeln!(out, "b{:b} {}", beats, queue_ids[queue as usize]);
                }
                TraceEvent::Stall { worker, cause, .. } => {
                    let _ = writeln!(out, "b{:b} {}", cause.code(), cause_ids[worker as usize]);
                }
                TraceEvent::Iteration { .. } => {}
            }
        }
        out
    }

    /// Replay the stream into `rec` as Chrome-trace events of process
    /// `pid`, one trace microsecond per cycle:
    ///
    /// - process and thread names (track 0 is the pipeline, track `w + 1`
    ///   worker `w`);
    /// - a `run <design>` span on track 0 from cycle 0 to the join, the
    ///   cycle after the last finish (left open when a worker never
    ///   finished);
    /// - per worker, `iter 0` from cycle 0; a back edge in cycle `C` closes
    ///   the current `iter N` at `C + 1` and opens `iter N+1` there, and a
    ///   finish in cycle `C` closes it for good at `C + 1`;
    /// - a `q<i> <name> beats` counter on track 0 per queue, sampled at
    ///   cycle 0 (queues start empty) and at every occupancy change.
    pub fn record_into(&self, rec: &Recorder, pid: u32) {
        let workers = self.worker_labels.len();
        rec.name_process(pid, format!("sim {}", self.design));
        rec.name_thread(pid, 0, "pipeline");
        for (w, label) in self.worker_labels.iter().enumerate() {
            rec.name_thread(pid, w as u32 + 1, label.clone());
        }
        rec.begin_at(pid, 0, 0, format!("run {}", self.design), "sim");
        for w in 0..workers {
            rec.begin_at(pid, w as u32 + 1, 0, "iter 0", "iteration");
        }
        let counters: Vec<String> =
            self.queue_names.iter().enumerate().map(|(q, n)| format!("q{q} {n} beats")).collect();
        for name in &counters {
            rec.counter_at(pid, 0, 0, name.clone(), 0.0);
        }
        let mut iterations = vec![0u64; workers];
        let mut finished = 0;
        let mut join = 0;
        for e in &self.events {
            match *e {
                TraceEvent::Iteration { cycle, worker } => {
                    let n = &mut iterations[worker as usize];
                    *n += 1;
                    rec.end_at(pid, worker + 1, cycle + 1);
                    rec.begin_at(pid, worker + 1, cycle + 1, format!("iter {n}"), "iteration");
                }
                TraceEvent::Finish { cycle, worker } => {
                    rec.end_at(pid, worker + 1, cycle + 1);
                    finished += 1;
                    join = cycle + 1;
                }
                TraceEvent::QueueOccupancy { cycle, queue, beats } => {
                    let name = counters[queue as usize].clone();
                    rec.counter_at(pid, 0, cycle, name, f64::from(beats));
                }
                TraceEvent::State { .. } | TraceEvent::Stall { .. } => {}
            }
        }
        if finished == workers {
            rec.end_at(pid, 0, join);
        }
    }
}

/// The identifier code of the `n`th variable: bijective base 94 over the
/// printable ASCII range `'!'..='~'`, least significant digit first, so
/// every `n` gets a distinct code of one or more characters.
fn vcd_id(mut n: usize) -> String {
    let mut id = String::new();
    loop {
        id.push(char::from(b'!' + (n % 94) as u8));
        n /= 94;
        if n == 0 {
            return id;
        }
        n -= 1;
    }
}

fn cycle_of(e: TraceEvent) -> u64 {
    match e {
        TraceEvent::State { cycle, .. }
        | TraceEvent::Finish { cycle, .. }
        | TraceEvent::QueueOccupancy { cycle, .. }
        | TraceEvent::Stall { cycle, .. }
        | TraceEvent::Iteration { cycle, .. } => cycle,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new("toy", vec!["a".into(), "b w0".into()], vec!["x".into()]);
        t.record(TraceEvent::State { cycle: 0, worker: 0, state: 0 });
        t.record(TraceEvent::State { cycle: 0, worker: 1, state: 0 });
        t.record(TraceEvent::QueueOccupancy { cycle: 3, queue: 0, beats: 1 });
        t.record(TraceEvent::Stall { cycle: 3, worker: 1, cause: StallCause::QueuePop });
        t.record(TraceEvent::State { cycle: 3, worker: 0, state: 2 });
        t.record(TraceEvent::State { cycle: 5, worker: 0, state: 0 });
        t.record(TraceEvent::Finish { cycle: 9, worker: 0 });
        t.record(TraceEvent::Finish { cycle: 9, worker: 1 });
        t
    }

    #[test]
    fn vcd_has_header_vars_and_timestamps() {
        let vcd = sample().to_vcd("toy");
        assert!(vcd.contains("$timescale 5ns $end"));
        assert!(vcd.contains("$scope module toy $end"));
        assert!(vcd.contains("w0_state"));
        assert!(vcd.contains("w1_finish"));
        assert!(vcd.contains("w1_cause"));
        assert!(vcd.contains("q0_beats"));
        assert!(vcd.contains("#3"));
        assert!(vcd.contains("#9"));
        assert!(vcd.contains("$enddefinitions $end"));
    }

    #[test]
    fn timestamps_are_emitted_once_per_cycle() {
        let vcd = sample().to_vcd("toy");
        assert_eq!(vcd.matches("#9").count(), 1);
        assert_eq!(vcd.matches("#3").count(), 1);
    }

    #[test]
    fn state_histogram_accounts_all_cycles() {
        let t = sample();
        let h = t.state_histogram(0, 10);
        let total: u64 = h.iter().map(|(_, d)| d).sum();
        assert_eq!(total, 10);
        // State 0: cycles 0..3 and 5..10 = 8; state 2: cycles 3..5 = 2.
        assert_eq!(h[0], (0, 8));
        assert_eq!(h[1], (2, 2));
    }

    #[test]
    fn identifier_codes_are_unique() {
        // 80 workers and 8 queues: 248 variables, past the 94 one-character
        // codes.
        let t = Trace::new("wide", vec![String::new(); 80], vec![String::new(); 8]);
        let vcd = t.to_vcd("wide");
        let ids: Vec<&str> = vcd
            .lines()
            .filter(|l| l.starts_with("$var"))
            .map(|l| l.split_whitespace().nth(3).expect("id"))
            .collect();
        assert_eq!(ids.len(), 80 * 3 + 8);
        for id in &ids {
            assert!(!id.is_empty() && id.bytes().all(|c| (b'!'..=b'~').contains(&c)), "{id:?}");
        }
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len());
        assert_eq!(
            (vcd_id(0), vcd_id(93), vcd_id(94), vcd_id(95)),
            ("!".into(), "~".into(), "!!".into(), "\"!".into())
        );
    }
}
