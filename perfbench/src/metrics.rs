//! The metric catalogue (names, units, directions) and the result line.
//!
//! The catalogue is the single list the benchmark prints from: a run fails
//! rather than print a result that misses one of its metrics, and a test
//! holds `BENCHMARK.json` to the same list.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the catalogue.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed by every workload with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Lower),
    m("best_throughput_rps", "1/s", Higher),
    m("best_latency_p50_ms", "ms", Lower),
    m("best_latency_p90_ms", "ms", Lower),
    m("peak_heap_mb", "MB", Lower),
    m("alut_total", "ALUT", Lower),
];

/// Per-layer metrics, printed by every workload from the traced run (zero
/// where the layer does no work on that workload).
pub const PER_LAYER: &[MetricDef] = &[
    m("kernels.build_ms", "ms", Lower),
    m("analysis.points_to_us", "us", Lower),
    m("analysis.pdg_us", "us", Lower),
    m("analysis.scc_us", "us", Lower),
    m("analysis.classify_us", "us", Lower),
    m("analysis.pdg_edges", "count", Lower),
    m("pipeline.partition_us", "us", Lower),
    m("pipeline.transform_us", "us", Lower),
    m("pipeline.ir_insts", "count", Lower),
    m("rtl.schedule_us", "us", Lower),
    m("rtl.fsm_states", "count", Lower),
    m("rtl.verilog_us", "us", Lower),
    m("rtl.verilog_bytes", "bytes", Lower),
    m("rtl.area_power_us", "us", Lower),
    m("core.compile_us", "us", Lower),
    m("core.compiles", "count", Lower),
    m("core.compile_cache_hit_ratio", "ratio", Higher),
    m("core.verify_ms", "ms", Lower),
    m("core.dse_points_per_s", "1/s", Higher),
    m("core.dse_feasible_ratio", "ratio", Higher),
    m("core.dse_explore_ms", "ms", Lower),
    m("sim.run_ms", "ms", Lower),
    m("sim.parent_interp_ms", "ms", Lower),
    m("sim.ns_per_cycle", "ns", Lower),
    m("sim.ns_per_worker_cycle", "ns", Lower),
    m("sim.skipped_ratio", "ratio", Higher),
    m("sim.cache_hit_ratio", "ratio", Higher),
    m("sim.stall_mem_ratio", "ratio", Lower),
    m("sim.fifo_beats", "count", Lower),
    m("obs.trace_overhead_ratio", "ratio", Lower),
    m("obs.self_time_coverage_ratio", "ratio", Higher),
];

/// Whether `name` is a valid metric or workload name: a letter or digit,
/// then at most 63 more letters, digits, `_`, `.` or `-`.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`, `%`,
/// `.` or `-`.
#[must_use]
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Render the result line: `correct`, `attempted`, `failed` and every
/// metric of `defs` with its unit, values printed with all their digits.
///
/// # Errors
/// A metric of `defs` missing from `values`, or a non-finite value.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &Values,
) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, d) in defs.iter().enumerate() {
        let v = *values.get(d.name).ok_or_else(|| format!("metric {} was not measured", d.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not finite ({v})", d.name));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", d.name, d.unit);
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgpa_obs::json::Json;

    #[test]
    fn catalogue_names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(valid_unit(d.unit), "{}: {}", d.name, d.unit);
            assert!(seen.insert(d.name), "{} listed twice", d.name);
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
    }

    #[test]
    fn name_and_unit_syntax() {
        for good in ["a", "9x", "sim.run_ms", "p-9_x.y", &"a".repeat(64)] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", "_a", ".a", "a b", "a/b", "é", &"a".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for good in ["ms", "1/s", "%", "count", "MB"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "m s", "ms!", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let defs = &END_TO_END[..2];
        let mut values = Values::new();
        values.insert("setup_s", 0.812_7);
        values.insert("best_throughput_rps", 1e3);
        let line = result_line(true, 10, 0, defs, &values).expect("all measured");
        let j = Json::parse(&line).expect("valid JSON");
        assert_eq!(j.get("attempted").and_then(Json::as_u64), Some(10));
        let metrics = j.get("metrics").expect("metrics");
        let setup = metrics.get("setup_s").expect("setup_s");
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.812_7));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        values.remove("setup_s");
        assert!(result_line(true, 10, 0, defs, &values).is_err());
        values.insert("setup_s", f64::NAN);
        assert!(result_line(true, 10, 0, defs, &values).is_err());
    }
}
