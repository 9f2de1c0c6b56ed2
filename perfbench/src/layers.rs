//! Per-layer metrics from the traced run's spans.

use crate::metrics::Values;
use crate::spans::{has_ancestor, self_times, SpanRec};
use std::collections::BTreeMap;
use std::time::Duration;

/// Root span of every traced request.
pub const REQUEST_SPAN: &str = "bench.request";

/// What the traced run measured besides its spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct TracedRun {
    /// Passes made traced (each alternated with one untraced pass).
    pub passes: usize,
    /// Wall time of the traced passes.
    pub traced_wall: Duration,
    /// Wall time of the untraced passes.
    pub untraced_wall: Duration,
    /// Compile-cache lookups during the passes: (compiles, hits).
    pub cache: (u64, u64),
}

/// Totals over the spans of one name.
#[derive(Debug, Clone, Copy, Default)]
struct Agg {
    count: u64,
    dur_us: u64,
    self_us: u64,
}

/// Running totals over every span of the traced run, folded in pass by
/// pass so the spans themselves need not be kept.
#[derive(Debug, Default)]
pub struct SpanTotals {
    by_name: BTreeMap<String, Agg>,
    args: BTreeMap<(String, String), f64>,
    layers: BTreeMap<String, u64>,
    request_compiles: u64,
}

impl SpanTotals {
    /// Fold in a closed set of spans (parents within the set).
    pub fn add(&mut self, spans: &[SpanRec]) {
        let own = self_times(spans);
        for (i, s) in spans.iter().enumerate() {
            let a = self.by_name.entry(s.name.clone()).or_default();
            a.count += 1;
            a.dur_us += s.dur_us();
            a.self_us += own[i];
            for (key, _) in &s.args {
                if let Some(v) = s.num_arg(key) {
                    *self.args.entry((s.name.clone(), key.clone())).or_default() += v;
                }
            }
            let in_request = has_ancestor(spans, i, REQUEST_SPAN);
            if s.name == REQUEST_SPAN || in_request {
                *self.layers.entry(s.cat.clone()).or_default() += own[i];
            }
            if s.name == "core.compile" && in_request {
                self.request_compiles += 1;
            }
        }
    }

    /// Self time per layer (span category) inside traced requests, in µs;
    /// the requests' own roots count under `bench`.
    #[must_use]
    pub fn layer_self_us(&self) -> &BTreeMap<String, u64> {
        &self.layers
    }

    fn agg(&self, name: &str) -> Agg {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    fn arg(&self, name: &str, key: &str) -> f64 {
        self.args.get(&(name.to_string(), key.to_string())).copied().unwrap_or(0.0)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric (see `perfbench/README.md` for definitions).
#[must_use]
pub fn per_layer(t: &SpanTotals, run: &TracedRun) -> Values {
    let agg = |name: &str| t.agg(name);
    let arg = |name: &str, key: &str| t.arg(name, key);
    let mean_us = |name: &str| {
        let a = agg(name);
        ratio(a.dur_us as f64, a.count as f64)
    };
    // Compile phases are per design compiled phase by phase.
    let designs = agg("analysis.points_to").count as f64;
    let per_design = |name: &str| ratio(agg(name).self_us as f64, designs);
    let passes = run.passes as f64;
    let sim_us = agg("sim.run").dur_us as f64;
    let explore = agg("core.dse_explore");
    let explored = arg("core.dse_explore", "evaluated");
    let (compiles, hits) = run.cache;
    let in_requests: u64 =
        t.layers.iter().filter(|(layer, _)| layer.as_str() != "bench").map(|(_, us)| *us).sum();

    let mut v = Values::new();
    v.insert("kernels.build_ms", mean_us("kernels.build") / 1e3);
    v.insert("analysis.points_to_us", per_design("analysis.points_to"));
    v.insert("analysis.pdg_us", per_design("analysis.pdg"));
    v.insert("analysis.scc_us", per_design("analysis.scc"));
    v.insert("analysis.classify_us", per_design("analysis.classify"));
    v.insert("analysis.pdg_edges", ratio(arg("analysis.pdg", "edges"), designs));
    v.insert("pipeline.partition_us", per_design("pipeline.partition"));
    v.insert("pipeline.transform_us", per_design("pipeline.transform"));
    v.insert("pipeline.ir_insts", ratio(arg("pipeline.transform", "insts"), designs));
    v.insert("rtl.schedule_us", per_design("rtl.schedule"));
    v.insert("rtl.fsm_states", ratio(arg("rtl.schedule", "fsm_states"), designs));
    v.insert("rtl.verilog_us", mean_us("rtl.verilog"));
    v.insert(
        "rtl.verilog_bytes",
        ratio(arg("rtl.verilog", "bytes"), agg("rtl.verilog").count as f64),
    );
    v.insert("rtl.area_power_us", mean_us("rtl.area_power"));
    v.insert("core.compile_us", mean_us("core.compile"));
    v.insert(
        "core.compiles",
        ratio(t.request_compiles as f64, passes) + ratio(compiles as f64, 2.0 * passes),
    );
    v.insert("core.compile_cache_hit_ratio", ratio(hits as f64, (hits + compiles) as f64));
    v.insert("core.verify_ms", mean_us("core.verify") / 1e3);
    v.insert("core.dse_points_per_s", ratio(explored, explore.dur_us as f64 / 1e6));
    v.insert(
        "core.dse_feasible_ratio",
        ratio(explored, explored + arg("core.dse_explore", "skipped")),
    );
    v.insert("core.dse_explore_ms", mean_us("core.dse_explore") / 1e3);
    v.insert("sim.run_ms", mean_us("sim.run") / 1e3);
    let rwa = agg("sim.run_with_accelerator");
    v.insert("sim.parent_interp_ms", ratio(rwa.self_us as f64, rwa.count as f64) / 1e3);
    v.insert("sim.ns_per_cycle", ratio(sim_us * 1e3, arg("sim.run", "cycles")));
    v.insert("sim.ns_per_worker_cycle", ratio(sim_us * 1e3, arg("sim.run", "worker_cycles")));
    v.insert("sim.skipped_ratio", ratio(arg("sim.run", "skipped"), arg("sim.run", "cycles")));
    v.insert(
        "sim.cache_hit_ratio",
        ratio(arg("sim.run", "cache_hits"), arg("sim.run", "cache_accesses")),
    );
    v.insert(
        "sim.stall_mem_ratio",
        ratio(arg("sim.run", "stall_mem"), arg("sim.run", "worker_cycles")),
    );
    v.insert("sim.fifo_beats", ratio(arg("sim.run", "fifo_beats"), passes));
    v.insert(
        "obs.trace_overhead_ratio",
        ratio(run.traced_wall.as_secs_f64(), run.untraced_wall.as_secs_f64()),
    );
    v.insert(
        "obs.self_time_coverage_ratio",
        ratio(in_requests as f64 / 1e6, run.traced_wall.as_secs_f64()),
    );
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;
    use crate::spans::spans_from_events;
    use cgpa_obs::Event;

    fn begin(name: &str, ts: u64, args: Vec<(String, cgpa_obs::ArgValue)>) -> Event {
        let cat = name.split('.').next().unwrap_or(name).to_string();
        Event::Begin { name: name.to_string(), cat, pid: 1, tid: 1, ts, args }
    }

    fn end(ts: u64) -> Event {
        Event::End { pid: 1, tid: 1, ts }
    }

    #[test]
    fn layers_account_for_the_request_and_sim_is_normalized_by_cycles() {
        let cycles = vec![("cycles".to_string(), 1_000u64.into())];
        let events = vec![
            begin("kernels.build", 0, Vec::new()),
            end(5),
            begin(REQUEST_SPAN, 10, Vec::new()),
            begin("sim.run_with_accelerator", 11, Vec::new()),
            begin("sim.run", 12, cycles),
            end(32),
            end(40),
            begin("core.verify", 40, Vec::new()),
            end(48),
            end(50),
        ];
        let spans = spans_from_events(&events).expect("balanced");
        let mut totals = SpanTotals::default();
        totals.add(&spans);
        let layers = totals.layer_self_us();
        // kernels.build is set-up, outside any request.
        assert_eq!(layers.get("kernels"), None);
        assert_eq!(layers["bench"], 40 - 29 - 8);
        assert_eq!(layers["sim"], 29);
        assert_eq!(layers["core"], 8);
        assert_eq!(layers.values().sum::<u64>(), 40);

        let run = TracedRun {
            passes: 1,
            traced_wall: Duration::from_micros(40),
            untraced_wall: Duration::from_micros(20),
            cache: (0, 0),
        };
        let v = per_layer(&totals, &run);
        for d in PER_LAYER {
            assert!(v.contains_key(d.name), "{} missing", d.name);
        }
        assert_eq!(v["kernels.build_ms"], 0.005);
        assert_eq!(v["sim.run_ms"], 0.02);
        assert_eq!(v["sim.parent_interp_ms"], 0.009);
        assert_eq!(v["sim.ns_per_cycle"], 20.0);
        assert_eq!(v["obs.trace_overhead_ratio"], 2.0);
        assert!((v["obs.self_time_coverage_ratio"] - 37.0 / 40.0).abs() < 1e-12);
        assert_eq!(v["core.compiles"], 0.0);
    }
}
