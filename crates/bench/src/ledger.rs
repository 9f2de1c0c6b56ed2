//! The bench ledger: every modelled result of the quick suite, recorded
//! exactly, so that "modelled results unchanged" is an equality check
//! against the committed `BENCH_baseline.json`.
//!
//! The simulator is deterministic, so the ledger holds no label and no
//! wall-clock field (perfbench owns wall-clock), and two runs of one commit
//! render byte-identical text. Counts are JSON numbers. `f64` results are
//! written as the hex of their bit patterns, and digests as hex strings,
//! because a JSON number is an `f64` and loses bits above 2^53.

use crate::suite::{bench_kernels, par_map, report_for, KernelSet};
use cgpa::compiler::{CgpaCompiler, CgpaConfig};
use cgpa::dse::{CompileCache, DseLattice, DseReport, DEFAULT_AREA_BUDGET_ALUT};
use cgpa::flows::{
    run, run_cgpa_dse, run_cgpa_tuned_auto, Design, FlowError, HwTuning, RunResult, RunSpec,
    TuneOutcome,
};
use cgpa::report::BenchmarkReport;
use cgpa_kernels::BuiltKernel;
use cgpa_obs::json::{escape, Json};

/// Layout version; bump it when a field is added, removed or renamed.
const SCHEMA: u64 = 2;

/// Input seed of the quick kernels.
pub const SEED: u64 = 42;

/// Miss latency of the memory-latency-dominated ("himem") row: a slow-DRAM
/// regime where a single worker spends most cycles waiting.
pub const HIMEM_MISS_LATENCY: u32 = 400;

/// Cache lines of the himem row. The quick inputs fit in the default 64 KB
/// cache; two lines make their accesses actually miss.
pub const HIMEM_CACHE_LINES: u32 = 2;

/// One kernel's modelled results.
#[derive(Debug, Clone)]
pub struct LedgerEntry {
    /// MIPS, LegUp, CGPA P1 and, where the paper reports it, P2.
    pub report: BenchmarkReport,
    /// FNV-1a 64 of the P1 FSMs' debug rendering.
    pub p1_fsm_digest: u64,
    /// FNV-1a 64 of the P1 Verilog.
    pub p1_verilog_digest: u64,
    /// LegUp in the himem regime.
    pub himem_legup: RunResult,
    /// The profile-guided tuner in the himem regime, starting from the
    /// default CGPA P1 configuration.
    pub tuned: TuneOutcome,
    /// The quick design-space exploration under the default tuning.
    pub dse: DseReport,
}

/// Build the ledger over the quick set, one kernel per thread. Every run in
/// it is verified against the functional reference.
///
/// # Errors
/// Forwards the first flow error (in kernel order).
pub fn build() -> Result<Vec<LedgerEntry>, FlowError> {
    par_map(&bench_kernels(KernelSet::Quick, SEED), entry).into_iter().collect()
}

fn entry(k: &BuiltKernel) -> Result<LedgerEntry, FlowError> {
    let config = CgpaConfig::default();
    let report = report_for(k, config.workers)?;
    let compiler = CgpaCompiler::new(config);
    let p1 = compiler.compile(&k.func, &k.model)?;
    let himem = HwTuning {
        miss_latency: HIMEM_MISS_LATENCY,
        cache_lines: HIMEM_CACHE_LINES,
        ..HwTuning::default()
    };
    let legup = RunSpec { tuning: himem, design: Design::Sequential, ..RunSpec::default() };
    let lattice = DseLattice::quick();
    Ok(LedgerEntry {
        p1_fsm_digest: fnv1a64(format!("{:?}", p1.fsms).as_bytes()),
        p1_verilog_digest: fnv1a64(compiler.emit_verilog(&p1).as_bytes()),
        report,
        himem_legup: run(k, &legup)?.result,
        tuned: run_cgpa_tuned_auto(k, config, himem)?,
        dse: run_cgpa_dse(
            k,
            &lattice,
            HwTuning::default(),
            DEFAULT_AREA_BUDGET_ALUT,
            &CompileCache::new(),
        )?,
    })
}

/// FNV-1a, 64-bit. Spelled out because `DefaultHasher`'s algorithm may
/// change between Rust releases, and these digests are committed.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The ledger as `BENCH_*.json` text.
#[must_use]
pub fn to_json(entries: &[LedgerEntry]) -> String {
    let doc = Json::Obj(vec![
        ("schema".into(), num(SCHEMA)),
        ("set".into(), Json::Str("quick".into())),
        ("seed".into(), num(SEED)),
        ("himem_miss_latency".into(), num(HIMEM_MISS_LATENCY.into())),
        ("himem_cache_lines".into(), num(HIMEM_CACHE_LINES.into())),
        ("area_budget_alut".into(), num(DEFAULT_AREA_BUDGET_ALUT.into())),
        ("kernels".into(), Json::Arr(entries.iter().map(LedgerEntry::json).collect())),
    ]);
    render(&doc, Some(0)) + "\n"
}

impl LedgerEntry {
    fn json(&self) -> Json {
        let r = &self.report;
        let skipped = |r: &RunResult| r.stats.as_ref().map_or(0, |s| s.skipped_cycles);
        let rec = self.dse.recommended.as_ref();
        let mut m = vec![
            ("name".to_string(), Json::Str(r.name.clone())),
            ("mips_cycles".to_string(), num(r.mips.cycles)),
        ];
        run_fields(&mut m, "legup", &r.legup);
        run_fields(&mut m, "cgpa", &r.cgpa_p1);
        m.push(("cgpa_fsm_digest".into(), hex(self.p1_fsm_digest)));
        m.push(("cgpa_verilog_digest".into(), hex(self.p1_verilog_digest)));
        if let Some(p2) = &r.cgpa_p2 {
            run_fields(&mut m, "cgpa_p2", p2);
        }
        m.push(("skipped_cycles".into(), num(skipped(&r.legup) + skipped(&r.cgpa_p1))));
        run_fields(&mut m, "himem", &self.himem_legup);
        m.push(("himem_cgpa_cycles".into(), num(self.tuned.baseline_cycles)));
        run_fields(&mut m, "himem_tuned", &self.tuned.best);
        m.push(("tuned_workers".into(), num(self.tuned.profile.workers.into())));
        m.push(("tuned_fifo_depth_beats".into(), num(self.tuned.profile.fifo_depth_beats as u64)));
        m.push(("dse_recommended".into(), rec.map_or(Json::Null, |o| Json::Str(o.point.label()))));
        m.push(("dse_recommended_cycles".into(), rec.map_or(Json::Null, |o| num(o.cycles))));
        let frontier = self.dse.frontier.iter().map(|o| Json::Str(o.point.label())).collect();
        m.push(("dse_frontier".into(), Json::Arr(frontier)));
        Json::Obj(m)
    }
}

/// `<prefix>_cycles`, `_alut`, `_power_mw_bits`, `_energy_uj_bits` and
/// `_stats_digest` (FNV-1a 64 of the full `SystemStats` debug rendering).
fn run_fields(m: &mut Vec<(String, Json)>, prefix: &str, r: &RunResult) {
    m.push((format!("{prefix}_cycles"), num(r.cycles)));
    m.push((format!("{prefix}_alut"), num(r.alut.into())));
    m.push((format!("{prefix}_power_mw_bits"), hex(r.power_mw.to_bits())));
    m.push((format!("{prefix}_energy_uj_bits"), hex(r.energy_uj.to_bits())));
    m.push((format!("{prefix}_stats_digest"), hex(fnv1a64(format!("{:?}", r.stats).as_bytes()))));
}

fn num(n: u64) -> Json {
    assert!(n < 1 << 53, "{n} does not fit a JSON number exactly");
    Json::Num(n as f64)
}

fn hex(n: u64) -> Json {
    Json::Str(format!("{n:016x}"))
}

/// `v` as JSON text: one member or element per line at `depth` levels of
/// indentation, or all on one line when `depth` is `None`.
fn render(v: &Json, depth: Option<usize>) -> String {
    let inner = depth.map(|d| d + 1);
    let (open, items, close) = match v {
        Json::Null => return "null".into(),
        Json::Bool(b) => return b.to_string(),
        Json::Num(n) => return n.to_string(),
        Json::Str(s) => return escape(s),
        Json::Arr(items) => ('[', items.iter().map(|i| render(i, inner)).collect::<Vec<_>>(), ']'),
        Json::Obj(members) => {
            let items = members.iter().map(|(k, v)| format!("{}: {}", escape(k), render(v, inner)));
            ('{', items.collect(), '}')
        }
    };
    match depth {
        _ if items.is_empty() => format!("{open}{close}"),
        None => format!("{open}{}{close}", items.join(", ")),
        Some(d) => {
            let pad = "  ".repeat(d + 1);
            format!("{open}\n{pad}{}\n{}{close}", items.join(&format!(",\n{pad}")), "  ".repeat(d))
        }
    }
}

/// Every difference between two ledgers, one line per JSON path, e.g.
/// `$.kernels[0].cgpa_cycles: baseline 11379, new 11380`. Empty when the
/// two are equal.
#[must_use]
pub fn diff(baseline: &Json, new: &Json) -> Vec<String> {
    let mut out = Vec::new();
    diff_at("$", Some(baseline), Some(new), &mut out);
    out
}

fn diff_at(path: &str, base: Option<&Json>, new: Option<&Json>, out: &mut Vec<String>) {
    match (base, new) {
        (Some(Json::Obj(b)), Some(Json::Obj(n))) => {
            let new_only = n.iter().filter(|(k, _)| !b.iter().any(|(bk, _)| bk == k));
            for (k, _) in b.iter().chain(new_only) {
                let (bv, nv) = (base.and_then(|v| v.get(k)), new.and_then(|v| v.get(k)));
                diff_at(&format!("{path}.{k}"), bv, nv, out);
            }
        }
        (Some(Json::Arr(b)), Some(Json::Arr(n))) => {
            for i in 0..b.len().max(n.len()) {
                diff_at(&format!("{path}[{i}]"), b.get(i), n.get(i), out);
            }
        }
        _ if base != new => {
            let show = |v: Option<&Json>| v.map_or_else(|| "(absent)".into(), |v| render(v, None));
            out.push(format!("{path}: baseline {}, new {}", show(base), show(new)));
        }
        _ => {}
    }
}
