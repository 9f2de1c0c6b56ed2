//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! experiments [table2|fig4|table3|tradeoff|scalability|ablation|topology|profile|dse|all]
//!             [--quick] [--csv <dir>] [--json] [--label <name>]
//! experiments bench [--json] [--label <name>]
//! experiments trace [--kernel <name>] [--out <file>] [--quick]
//! experiments compare <new.json> [--baseline <file>]
//! ```
//!
//! `--csv <dir>` additionally writes machine-readable CSV files per
//! experiment for downstream plotting. `--label` names the JSON files;
//! without it the label is the current git short SHA, or `local`.
//!
//! `profile` renders each kernel's bottleneck report (per-stage
//! utilization, queue occupancy, memory pressure, and the limiting
//! resource); with `--json` it writes `PROFILE_<label>.json`.
//!
//! `bench` builds the ledger of modelled results over the quick set
//! (`cgpa_bench::ledger`): MIPS, LegUp and CGPA cycles, area, power and
//! energy bit patterns, digests of the simulator statistics, FSMs and
//! Verilog, LegUp and the profile-guided tuner at 400-cycle misses, and the
//! quick DSE's recommendation and frontier. It prints the cycles and, with
//! `--json`, writes the whole ledger to `BENCH_<label>.json`. It measures
//! no wall-clock; perfbench does. Regenerate the committed baseline with
//! `experiments bench --json --label baseline`.
//!
//! `dse` explores the configuration lattice per kernel (workers × FIFO
//! depth × cache geometry × P1/P2 placement) with compiles memoized behind
//! a content-hash cache, and reports the (cycles, ALUTs, power) Pareto
//! frontier plus the recommended point under the DE4 area budget. With
//! `--json` it writes `DSE_<label>.json`; `--quick` samples the lattice.
//!
//! `trace` runs one kernel end to end with structured tracing (compile-phase
//! spans, Verilog emission, per-iteration pipeline spans, FIFO-occupancy
//! counters) and writes a Chrome-trace JSON loadable at
//! <https://ui.perfetto.dev>.
//!
//! `compare` demands exact equality of two ledgers (by default against the
//! committed `BENCH_baseline.json`). It prints every differing JSON path
//! with both values and exits 1 on any difference, 2 on a usage, read or
//! parse error.

use cgpa::compiler::{CgpaCompiler, CgpaConfig};
use cgpa::report::{geomean, BenchmarkReport};
use cgpa_bench::{bench_kernels, full_report, ledger, scalability_sweep, KernelSet};
use std::borrow::Cow;
use std::cell::RefCell;
use std::fmt::Write as _;

thread_local! {
    static CSV_DIR: RefCell<Option<std::path::PathBuf>> = const { RefCell::new(None) };
}

/// Display form of a geomean: the value, or "n/a" when no entry was
/// positive (a degraded run can zero out a whole column).
fn gm(values: &[f64]) -> Cow<'static, str> {
    match geomean(values) {
        Some(g) => Cow::Owned(format!("{g:.2}")),
        None => Cow::Borrowed("n/a"),
    }
}

/// Write a CSV file into the `--csv` directory, if one was given.
fn write_csv(name: &str, header: &str, rows: &[String]) {
    CSV_DIR.with(|c| {
        if let Some(dir) = c.borrow().as_ref() {
            let mut text = String::from(header);
            text.push('\n');
            for r in rows {
                text.push_str(r);
                text.push('\n');
            }
            let path = dir.join(format!("{name}.csv"));
            std::fs::write(&path, text).expect("write csv");
            eprintln!("wrote {}", path.display());
        }
    });
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let csv_dir: Option<std::path::PathBuf> = args
        .iter()
        .position(|a| a == "--csv")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from);
    if let Some(d) = &csv_dir {
        std::fs::create_dir_all(d).expect("create csv dir");
    }
    CSV_DIR.with(|c| *c.borrow_mut() = csv_dir);
    let set = if quick { KernelSet::Quick } else { KernelSet::Full };
    // Flags that consume the following argument: their operands are not
    // positional.
    let operand_of: Vec<usize> = ["--csv", "--label", "--kernel", "--out", "--baseline"]
        .iter()
        .filter_map(|f| args.iter().position(|a| a == *f).map(|i| i + 1))
        .collect();
    let positionals: Vec<String> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| !a.starts_with("--") && !operand_of.contains(i))
        .map(|(_, a)| a.clone())
        .collect();
    let which = positionals.first().cloned().unwrap_or_else(|| "all".to_string());

    match which.as_str() {
        "bench" => bench(args.iter().any(|a| a == "--json"), &bench_label(&args)),
        "profile" => profile_cmd(set, args.iter().any(|a| a == "--json"), &bench_label(&args)),
        "dse" => dse_cmd(set, args.iter().any(|a| a == "--json"), &bench_label(&args)),
        "trace" => trace_cmd(
            set,
            flag_operand(&args, "--kernel").unwrap_or_else(|| "kmeans".to_string()).as_str(),
            flag_operand(&args, "--out").unwrap_or_else(|| "trace.json".to_string()).as_str(),
        ),
        "compare" => {
            let Some(new_path) = positionals.get(1) else {
                eprintln!("usage: experiments compare <new.json> [--baseline <file>]");
                std::process::exit(2);
            };
            let baseline = flag_operand(&args, "--baseline")
                .unwrap_or_else(|| "BENCH_baseline.json".to_string());
            compare_cmd(new_path, &baseline);
        }
        "table2" => table2(set),
        "fig4" => fig4(set),
        "table3" => table3(set),
        "tradeoff" => tradeoff(set),
        "scalability" => scalability(set),
        "ablation" => ablation(set),
        "topology" => topology(set),
        "all" => {
            table2(set);
            let reports = run_suite(set);
            fig4_from(&reports);
            table3_from(&reports);
            tradeoff_from(&reports);
            scalability(set);
            ablation(set);
        }
        other => {
            eprintln!("unknown experiment `{other}`");
            eprintln!(
                "usage: experiments [table2|fig4|table3|tradeoff|scalability|ablation|topology|profile|bench|dse|trace|compare|all] [--quick] [--csv <dir>] [--json] [--label <name>] (bench always runs the quick set)"
            );
            std::process::exit(2);
        }
    }
}

/// The operand following `flag`, if present.
fn flag_operand(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

/// Label for `BENCH_`, `PROFILE_` and `DSE_<label>.json`: `--label` wins,
/// then the git short SHA, then `"local"`.
fn bench_label(args: &[String]) -> String {
    if let Some(l) = flag_operand(args, "--label") {
        return l;
    }
    if let Ok(out) =
        std::process::Command::new("git").args(["rev-parse", "--short", "HEAD"]).output()
    {
        if out.status.success() {
            let sha = String::from_utf8_lossy(&out.stdout).trim().to_string();
            if !sha.is_empty() {
                return sha;
            }
        }
    }
    "local".to_string()
}

/// The bench ledger (see `cgpa_bench::ledger`): print it as tables and,
/// with `json`, write it to `BENCH_<label>.json`.
fn bench(json: bool, label: &str) {
    use cgpa::dse::DEFAULT_AREA_BUDGET_ALUT;
    use ledger::{HIMEM_CACHE_LINES, HIMEM_MISS_LATENCY};

    let entries = ledger::build().unwrap_or_else(|e| {
        eprintln!("bench failed: {e}");
        std::process::exit(1);
    });
    println!("== Bench ledger: simulated cycles on the quick suite (seed {}) ==", ledger::SEED);
    println!(
        "{:<14} {:>10} {:>10} {:>10} {:>10} {:>9}",
        "benchmark", "MIPS", "LegUp", "CGPA(P1)", "CGPA(P2)", "P1/LegUp"
    );
    for e in &entries {
        let r = &e.report;
        let p2 = r.cgpa_p2.as_ref().map_or_else(|| "-".to_string(), |p| p.cycles.to_string());
        println!(
            "{:<14} {:>10} {:>10} {:>10} {:>10} {:>8.2}x",
            r.name,
            r.mips.cycles,
            r.legup.cycles,
            r.cgpa_p1.cycles,
            p2,
            r.cgpa_over_legup()
        );
    }
    println!();
    println!(
        "== {HIMEM_MISS_LATENCY}-cycle misses, {HIMEM_CACHE_LINES}-line cache: LegUp, and CGPA(P1) \
         before and after profile-guided tuning =="
    );
    println!(
        "{:<14} {:>10} {:>12} {:>10} {:>8} {:>8} {:>5}  bottleneck",
        "benchmark", "LegUp", "default", "tuned", "speedup", "workers", "fifo"
    );
    for e in &entries {
        let t = &e.tuned;
        println!(
            "{:<14} {:>10} {:>12} {:>10} {:>7.2}x {:>8} {:>5}  {}",
            e.report.name,
            e.himem_legup.cycles,
            t.baseline_cycles,
            t.best.cycles,
            t.speedup(),
            t.profile.workers,
            t.profile.fifo_depth_beats,
            t.profile.bottleneck_summary()
        );
    }
    println!();
    println!("== Quick DSE recommendation (area budget {DEFAULT_AREA_BUDGET_ALUT} ALUTs) ==");
    for e in &entries {
        match &e.dse.recommended {
            Some(o) => println!(
                "{:<14} {:<26} {:>10} cycles {:>8} ALUTs  ({} frontier points)",
                e.report.name,
                o.point.label(),
                o.cycles,
                o.alut,
                e.dse.frontier.len()
            ),
            None => println!("{:<14} -", e.report.name),
        }
    }
    println!();
    if json {
        let path = format!("BENCH_{label}.json");
        std::fs::write(&path, ledger::to_json(&entries)).expect("write bench json");
        eprintln!("wrote {path}");
    }
}

/// The opening of `PROFILE_*.json` and `DSE_*.json`: the brace, the label
/// and the kernel set.
fn json_header(label: &str, set: KernelSet) -> String {
    let set = if set == KernelSet::Quick { "quick" } else { "full" };
    format!("{{\n  \"label\": {},\n  \"set\": \"{set}\",\n", cgpa_obs::json::escape(label))
}

/// Per-kernel bottleneck report: compile each kernel as CGPA(P1), run it,
/// and render the stage/queue/memory profile with the limiting-resource
/// verdict. With `json`, also write `PROFILE_<label>.json`.
fn profile_cmd(set: KernelSet, json: bool, label: &str) {
    use cgpa::flows::{run, RunSpec};

    println!("== Profile: per-kernel bottleneck report (CGPA P1, default tuning) ==");
    let kernels = bench_kernels(set, 42);
    let mut profiles = Vec::new();
    let mut csv_rows: Vec<String> = Vec::new();
    for k in &kernels {
        match run(k, &RunSpec::default()).map(|r| r.profile.expect("pipeline runs are profiled")) {
            Ok(profile) => {
                print!("{}", profile.render());
                csv_rows.push(format!(
                    "{},{},{},{:.4}",
                    k.name,
                    profile.bottleneck.tag(),
                    profile.cycles,
                    profile.stages.iter().map(|s| s.utilization).fold(0.0f64, f64::max)
                ));
                profiles.push(profile);
            }
            Err(e) => println!("{}: failed: {e}", k.name),
        }
    }
    println!();
    write_csv("profile", "benchmark,bottleneck,cycles,max_stage_utilization", &csv_rows);
    if json {
        let mut out = json_header(label, set);
        let _ = writeln!(out, "  \"profiles\": [");
        for (i, p) in profiles.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {}{}",
                p.to_json(),
                if i + 1 < profiles.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        let path = format!("PROFILE_{label}.json");
        std::fs::write(&path, out).expect("write profile json");
        eprintln!("wrote {path}");
    }
}

/// One DSE outcome as a JSON object (shared by `recommended` and the
/// frontier list).
fn dse_point_json(o: &cgpa::dse::DseOutcome, indent: &str) -> String {
    use cgpa_pipeline::ReplicablePlacement;
    let p = &o.point;
    let placement = match p.placement {
        ReplicablePlacement::Pipelined => "P1",
        ReplicablePlacement::Replicated => "P2",
    };
    let banks = match p.cache_banks {
        Some(b) => b.to_string(),
        None => "null".to_string(),
    };
    format!(
        "{indent}{{\"label\": \"{}\", \"placement\": \"{placement}\", \"workers\": {}, \
         \"fifo_depth_beats\": {}, \"cache_lines\": {}, \"cache_banks\": {banks}, \
         \"cycles\": {}, \"alut\": {}, \"power_mw\": {:.3}, \"energy_uj\": {:.3}, \
         \"edp\": {:.6}}}",
        p.label(),
        p.workers,
        p.fifo_depth_beats,
        p.cache_lines,
        o.cycles,
        o.alut,
        o.power_mw,
        o.energy_uj,
        o.edp,
    )
}

/// Design-space exploration: enumerate the configuration lattice per
/// kernel, evaluate every point (compiles memoized behind the content-hash
/// cache), and report the (cycles, ALUTs, power) Pareto frontier plus the
/// recommended point under the DE4 area budget. The recommended point is
/// re-validated through the warm cache — a cache hit plus a bit-identical
/// re-run. With `json`, writes `DSE_<label>.json`.
fn dse_cmd(set: KernelSet, json: bool, label: &str) {
    use cgpa::dse::{CompileCache, DseLattice, DEFAULT_AREA_BUDGET_ALUT};
    use cgpa::flows::{run, run_cgpa_dse, Design, HwTuning, RunSpec};

    let budget = DEFAULT_AREA_BUDGET_ALUT;
    let lattice = if set == KernelSet::Quick { DseLattice::quick() } else { DseLattice::default() };
    let env = HwTuning::default();
    let cache = CompileCache::new();
    println!("== DSE: Pareto frontier per kernel (area budget {budget} ALUTs) ==");
    println!(
        "{:<12} {:>6} {:>6} {:>8} {:>6} {:>8}  {:<26} {:>10} {:>8} {:>8}",
        "benchmark",
        "points",
        "skip",
        "compiles",
        "hits",
        "frontier",
        "recommended",
        "cycles",
        "alut",
        "mW"
    );
    let kernels = bench_kernels(set, 42);
    let mut csv_rows: Vec<String> = Vec::new();
    let mut out = json_header(label, set);
    let _ = writeln!(out, "  \"area_budget_alut\": {budget},");
    let _ = writeln!(out, "  \"kernels\": [");
    let mut first = true;
    for k in &kernels {
        let report = match run_cgpa_dse(k, &lattice, env, budget, &cache) {
            Ok(r) => r,
            Err(e) => {
                println!("{:<12} failed: {e}", k.name);
                continue;
            }
        };
        // Warm-cache re-validation: compiling the recommended point again
        // must hit the cache (no compile) and re-simulate to the same
        // cycle count.
        let revalidated = report.recommended.as_ref().is_some_and(|rec| {
            let before = cache.stats();
            let cfg = rec.point.config(&CgpaConfig::default());
            let Ok(design) = cache.get_or_compile(&k.func, &k.model, cfg) else {
                return false;
            };
            let after = cache.stats();
            let warm = after.hits > before.hits && after.compiles == before.compiles;
            let (tuning, design) = (rec.point.tuning(&env), Design::Compiled(&design));
            let spec = RunSpec { config: cfg, tuning, design, ..RunSpec::default() };
            match run(k, &spec) {
                Ok(rr) => warm && rr.result.cycles == rec.cycles,
                Err(_) => false,
            }
        });
        let (rec_label, rec_cycles, rec_alut, rec_mw) = match &report.recommended {
            Some(r) => (
                r.point.label(),
                r.cycles.to_string(),
                r.alut.to_string(),
                format!("{:.1}", r.power_mw),
            ),
            None => ("-".to_string(), "-".to_string(), "-".to_string(), "-".to_string()),
        };
        println!(
            "{:<12} {:>6} {:>6} {:>8} {:>6} {:>8}  {:<26} {:>10} {:>8} {:>8}",
            report.kernel,
            report.evaluated.len(),
            report.skipped.len(),
            report.compiles,
            report.cache_hits,
            report.frontier.len(),
            rec_label,
            rec_cycles,
            rec_alut,
            rec_mw,
        );
        csv_rows.push(format!(
            "{},{},{},{},{},{},{},{},{},{}",
            report.kernel,
            report.evaluated.len(),
            report.skipped.len(),
            report.compiles,
            report.cache_hits,
            report.frontier.len(),
            rec_label,
            rec_cycles,
            rec_alut,
            rec_mw,
        ));
        if !first {
            let _ = writeln!(out, ",");
        }
        first = false;
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"name\": \"{}\",", report.kernel);
        let _ = writeln!(out, "      \"points_evaluated\": {},", report.evaluated.len());
        let _ = writeln!(out, "      \"points_skipped\": {},", report.skipped.len());
        let _ = writeln!(out, "      \"compiles\": {},", report.compiles);
        let _ = writeln!(out, "      \"cache_hits\": {},", report.cache_hits);
        let _ = writeln!(
            out,
            "      \"best_cycles\": {},",
            report.best_cycles().map_or_else(|| "null".to_string(), |c| c.to_string())
        );
        let _ = writeln!(out, "      \"revalidated\": {revalidated},");
        match &report.recommended {
            Some(r) => {
                let _ = writeln!(out, "      \"recommended\": {},", dse_point_json(r, ""));
            }
            None => {
                let _ = writeln!(out, "      \"recommended\": null,");
            }
        }
        let _ = writeln!(out, "      \"frontier\": [");
        for (i, f) in report.frontier.iter().enumerate() {
            let _ = writeln!(
                out,
                "{}{}",
                dse_point_json(f, "        "),
                if i + 1 < report.frontier.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "      ]");
        let _ = write!(out, "    }}");
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    println!();
    write_csv(
        "dse",
        "benchmark,points,skipped,compiles,cache_hits,frontier,recommended,cycles,alut,power_mw",
        &csv_rows,
    );
    if json {
        let path = format!("DSE_{label}.json");
        std::fs::write(&path, out).expect("write dse json");
        eprintln!("wrote {path}");
    }
}

/// Run one kernel end to end with structured tracing and write the
/// Chrome-trace JSON to `out` (load it at <https://ui.perfetto.dev>).
fn trace_cmd(set: KernelSet, kernel: &str, out: &str) {
    use cgpa::flows::{run, RunSpec};

    let kernels = bench_kernels(set, 42);
    let Some(k) = kernels.iter().find(|k| k.name == kernel) else {
        let names: Vec<&str> = kernels.iter().map(|k| k.name.as_str()).collect();
        eprintln!("unknown kernel `{kernel}`; available: {}", names.join(", "));
        std::process::exit(2);
    };
    match run(k, &RunSpec { trace: true, ..RunSpec::default() }) {
        Ok(traced) => {
            let recorder = traced.recorder.expect("traced runs carry a recorder");
            let events = recorder.events().len();
            std::fs::write(out, recorder.to_chrome_json()).expect("write trace json");
            println!(
                "{}: {} in {} cycles (shape {})",
                k.name,
                traced.result.config,
                traced.result.cycles,
                traced.result.shape.as_deref().unwrap_or("-")
            );
            eprintln!("wrote {out} ({events} events; open in https://ui.perfetto.dev)");
        }
        Err(e) => {
            eprintln!("{}: traced run failed: {e}", k.name);
            std::process::exit(1);
        }
    }
}

/// Load a JSON file, exiting with code 2 on an I/O or parse failure.
fn load_json(path: &str) -> cgpa_obs::json::Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    cgpa_obs::json::Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(2);
    })
}

/// Diff the ledger at `new_path` against the one at `baseline_path`. Exit
/// codes: 0 equal, 1 any difference (every differing path is printed), 2
/// usage, read or parse error.
fn compare_cmd(new_path: &str, baseline_path: &str) {
    let diffs = ledger::diff(&load_json(baseline_path), &load_json(new_path));
    if diffs.is_empty() {
        println!("{new_path} equals {baseline_path}");
        return;
    }
    println!("{new_path} differs from {baseline_path} at {} path(s):", diffs.len());
    for d in &diffs {
        println!("  {d}");
    }
    println!("if every change is intended: experiments bench --json --label baseline");
    std::process::exit(1);
}

fn run_suite(set: KernelSet) -> Vec<BenchmarkReport> {
    full_report(set, 4, 42).unwrap_or_else(|e| {
        eprintln!("suite failed: {e}");
        std::process::exit(1);
    })
}

/// Table 2: benchmark descriptions and derived pipeline partitions.
fn table2(set: KernelSet) {
    println!("== Table 2: benchmark descriptions and derived pipeline partitions ==");
    println!("{:<14} {:<20} {:>8} {:>8}  description", "benchmark", "domain", "P1", "P2");
    let compiler_p1 = CgpaCompiler::new(CgpaConfig::default());
    let compiler_p2 = CgpaCompiler::new(CgpaConfig {
        placement: cgpa_pipeline::ReplicablePlacement::Replicated,
        ..CgpaConfig::default()
    });
    for k in bench_kernels(set, 42) {
        let p1 = compiler_p1
            .compile(&k.func, &k.model)
            .map(|c| c.shape)
            .unwrap_or_else(|e| format!("err: {e}"));
        let p2 = if cgpa_bench::suite::has_p2(&k.name) {
            compiler_p2
                .compile(&k.func, &k.model)
                .map(|c| c.shape)
                .unwrap_or_else(|e| format!("err: {e}"))
        } else {
            "-".to_string()
        };
        println!("{:<14} {:<20} {:>8} {:>8}  {}", k.name, k.domain, p1, p2, k.description);
    }
    println!();
}

fn fig4(set: KernelSet) {
    fig4_from(&run_suite(set));
}

/// Figure 4: loop speedups over the MIPS soft core.
fn fig4_from(reports: &[BenchmarkReport]) {
    println!("== Figure 4: loop speedup, normalized to the MIPS software core ==");
    println!("{:<14} {:>12} {:>12} {:>14}", "benchmark", "LegUp", "CGPA", "CGPA/LegUp");
    let mut legup = Vec::new();
    let mut cgpa = Vec::new();
    let mut ratio = Vec::new();
    for r in reports {
        let l = r.legup_speedup();
        let c = r.cgpa_speedup();
        println!("{:<14} {:>11.2}x {:>11.2}x {:>13.2}x", r.name, l, c, r.cgpa_over_legup());
        legup.push(l);
        cgpa.push(c);
        ratio.push(r.cgpa_over_legup());
    }
    println!("{:<14} {:>11}x {:>11}x {:>13}x", "GeoMean", gm(&legup), gm(&cgpa), gm(&ratio));
    println!("paper:         LegUp 1.85x geomean; CGPA 6.0x geomean; CGPA/LegUp 3.3x (3.0-3.8x)");
    println!();
    let rows: Vec<String> = reports
        .iter()
        .map(|r| {
            format!(
                "{},{},{},{},{:.4},{:.4}",
                r.name,
                r.mips.cycles,
                r.legup.cycles,
                r.cgpa_p1.cycles,
                r.legup_speedup(),
                r.cgpa_speedup()
            )
        })
        .collect();
    write_csv(
        "fig4",
        "benchmark,mips_cycles,legup_cycles,cgpa_cycles,legup_speedup,cgpa_speedup",
        &rows,
    );
}

fn table3(set: KernelSet) {
    table3_from(&run_suite(set));
}

/// Table 3: ALUT / power / energy / energy efficiency.
fn table3_from(reports: &[BenchmarkReport]) {
    println!("== Table 3: area, power, energy ==");
    println!(
        "{:<14} {:<10} {:>8} {:>10} {:>12} {:>12}",
        "benchmark", "type", "ALUT", "power(mW)", "energy(uJ)", "eff(it/uJ)"
    );
    let mut overheads = Vec::new();
    let mut alut_ratios = Vec::new();
    for r in reports {
        let rows: Vec<(&str, &cgpa::flows::RunResult)> = {
            let mut v = vec![("LegUp", &r.legup), ("CGPA(P1)", &r.cgpa_p1)];
            if let Some(p2) = &r.cgpa_p2 {
                v.push(("CGPA(P2)", p2));
            }
            v
        };
        for (label, rr) in rows {
            println!(
                "{:<14} {:<10} {:>8} {:>10.1} {:>12.3} {:>12.2}",
                r.name, label, rr.alut, rr.power_mw, rr.energy_uj, rr.efficiency
            );
        }
        overheads.push(r.energy_overhead());
        alut_ratios.push(r.alut_ratio());
    }
    println!(
        "geomean CGPA(P1)/LegUp: ALUT {}x (paper ~4.1x), energy {}x (paper ~1.2x)",
        gm(&alut_ratios),
        gm(&overheads)
    );
    println!();
    let mut rows: Vec<String> = Vec::new();
    for r in reports {
        let mut push = |label: &str, rr: &cgpa::flows::RunResult| {
            rows.push(format!(
                "{},{label},{},{:.3},{:.4},{:.4}",
                r.name, rr.alut, rr.power_mw, rr.energy_uj, rr.efficiency
            ));
        };
        push("legup", &r.legup);
        push("cgpa_p1", &r.cgpa_p1);
        if let Some(p2) = &r.cgpa_p2 {
            push("cgpa_p2", p2);
        }
    }
    write_csv("table3", "benchmark,config,alut,power_mw,energy_uj,efficiency", &rows);
}

fn tradeoff(set: KernelSet) {
    tradeoff_from(&run_suite(set));
}

/// §4.2 Tradeoff: P1 vs P2 on em3d and Gaussblur.
fn tradeoff_from(reports: &[BenchmarkReport]) {
    println!("== Tradeoff: decoupled pipelining (P1) vs replicated data-level parallelism (P2) ==");
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>12}",
        "benchmark", "P1 cycles", "P2 cycles", "P1 perf +", "P1 energy -"
    );
    for r in reports {
        let Some(p2) = &r.cgpa_p2 else { continue };
        let perf = (p2.cycles as f64 / r.cgpa_p1.cycles as f64 - 1.0) * 100.0;
        let energy = (1.0 - r.cgpa_p1.energy_uj / p2.energy_uj) * 100.0;
        println!(
            "{:<14} {:>12} {:>12} {:>11.1}% {:>11.1}%",
            r.name, r.cgpa_p1.cycles, p2.cycles, perf, energy
        );
    }
    println!("paper: P1 faster by 6% (em3d) / 15% (Gaussblur); energy lower by 11% / 14%");
    println!();
}

/// Figure 2 topology: stages, workers, FIFO channels, and cache ports per
/// kernel, plus per-stage area.
fn topology(set: KernelSet) {
    println!("== Figure 2: accelerator topology per kernel ==");
    let compiler = CgpaCompiler::new(CgpaConfig::default());
    for k in bench_kernels(set, 42) {
        match compiler.compile(&k.func, &k.model) {
            Ok(c) => print!("{}", cgpa::report::pipeline_summary(&c)),
            Err(e) => println!("{}: {e}", k.name),
        }
    }
    println!();
}

/// Extension ablations: FIFO-depth sensitivity (the paper fixes 16 beats)
/// and miss-latency tolerance (the decoupling benefit of §2.2).
fn ablation(set: KernelSet) {
    use cgpa_bench::suite::{fifo_depth_sweep, miss_latency_sweep};
    println!("== Ablation A: FIFO depth (CGPA P1 cycles; paper fixes depth 16) ==");
    let depths = [2usize, 4, 8, 16, 32];
    print!("{:<14}", "benchmark");
    for d in depths {
        print!(" {d:>8}b");
    }
    println!();
    for k in bench_kernels(set, 42) {
        match fifo_depth_sweep(&k, &depths) {
            Ok(rows) => {
                print!("{:<14}", k.name);
                for (_, cy) in rows {
                    print!(" {cy:>9}");
                }
                println!();
            }
            Err(e) => println!("{:<14} failed: {e}", k.name),
        }
    }
    println!();
    println!(
        "== Ablation B: miss-latency tolerance (LegUp vs CGPA slowdown, x over 12-cycle miss) =="
    );
    let lats = [12u32, 24, 48, 96];
    println!("{:<14} {:>16} {:>16}", "benchmark", "LegUp 12->96", "CGPA 12->96");
    for k in bench_kernels(set, 42) {
        match miss_latency_sweep(&k, &lats) {
            Ok(rows) => {
                let (l0, c0) = (rows[0].1 as f64, rows[0].2 as f64);
                let (ln, cn) = (rows[3].1 as f64, rows[3].2 as f64);
                println!("{:<14} {:>15.2}x {:>15.2}x", k.name, ln / l0, cn / c0);
            }
            Err(e) => println!("{:<14} failed: {e}", k.name),
        }
    }
    println!("(lower is better: a smaller factor means the design tolerates slow memory better)");
    println!();
}

/// Appendix B.1: worker-count sweep.
fn scalability(set: KernelSet) {
    println!("== Appendix B.1: scalability (CGPA P1 cycles by worker count) ==");
    let counts = [1u32, 2, 4, 8, 16];
    print!("{:<14}", "benchmark");
    for c in counts {
        print!(" {c:>10}w");
    }
    println!();
    let mut csv_rows: Vec<String> = Vec::new();
    for k in bench_kernels(set, 42) {
        match scalability_sweep(&k, &counts) {
            Ok(rows) => {
                print!("{:<14}", k.name);
                for (w, cycles) in rows {
                    print!(" {cycles:>11}");
                    csv_rows.push(format!("{},{w},{cycles}", k.name));
                }
                println!();
            }
            Err(e) => println!("{:<14} failed: {e}", k.name),
        }
    }
    write_csv("scalability", "benchmark,workers,cycles", &csv_rows);
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgpa_obs::json::Json;

    #[test]
    fn json_header_escapes_the_label() {
        let doc = format!("{}  \"profiles\": []\n}}\n", json_header("a\"b\\c", KernelSet::Quick));
        let doc = Json::parse(&doc).expect("a label with quotes still parses");
        assert_eq!(doc.get("label").and_then(Json::as_str), Some("a\"b\\c"));
    }
}
