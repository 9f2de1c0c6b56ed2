//! The closed loop, the untraced and traced runs, and their output.

use crate::alloc::{peak_heap_bytes, reset_peak};
use crate::calls::Tracer;
use crate::env::Fingerprint;
use crate::layers::{per_layer, SpanTotals, TracedRun};
use crate::metrics::{result_line, Values, END_TO_END, PER_LAYER};
use crate::spans::spans_from_events;
use crate::stats::{hd_percentile, median, tail_is_supported};
use crate::workload::{setup, Kind, Work, Workload};
use std::path::Path;
use std::time::{Duration, Instant};

/// Command-line usage.
pub const USAGE: &str = "usage: cgpa-perfbench --workload <suite|himem-dse|compile> --seed <n> \
                         --seconds <s> --trace <0|1>";

/// Set-ups per untraced run; `setup_s` and `peak_heap_mb` are their medians.
pub const SETUP_REPEATS: usize = 5;
/// Fewest latency samples a run collects (the 90th percentile needs ten
/// beyond it), even past `--seconds`.
pub const MIN_SAMPLES: usize = 100;
/// The loop stops after this long whatever it has collected.
pub const MAX_LOOP: Duration = Duration::from_secs(120);
/// Where the traced run writes its Chrome trace, relative to the checkout.
pub const TRACE_DIR: &str = "perfbench/out";
/// Events the trace file keeps: set-up plus the traced passes that start
/// below this count (a few MB of JSON).
pub const TRACE_FILE_EVENTS: usize = 40_000;

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Workload to run.
    pub workload: Kind,
    /// Input seed.
    pub seed: u64,
    /// Measurement time.
    pub seconds: u64,
    /// Traced (per-layer) run instead of the end-to-end one.
    pub trace: bool,
}

impl Args {
    /// Parse `--workload`, `--seed`, `--seconds` and `--trace`, all required.
    ///
    /// # Errors
    /// A missing, unknown or malformed option.
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                    );
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?.max(1)),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    });
                }
                _ => return Err(format!("unknown option {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// Run the benchmark and print its result; `Ok(false)` when a check failed.
///
/// # Errors
/// Set-up failed or a metric could not be measured; nothing is printed as
/// a result then.
pub fn run(args: &Args) -> Result<bool, String> {
    let fp = Fingerprint::take(args.workload.name(), args.seed);
    println!("env {}", fp.to_json());
    if args.trace {
        traced(args)
    } else {
        untraced(args)
    }
}

/// Print a named metric.
fn show(name: &str, value: f64, unit: &str, note: &str) {
    println!("metric {name} = {value} {unit}{note}");
}

/// Report failures on standard error; returns their count.
fn report_failures(failures: &[String]) -> u64 {
    for f in failures {
        eprintln!("FAILED: {f}");
    }
    failures.len() as u64
}

/// What the closed loop measured.
struct Loop {
    /// Latency of every request, in order: pass after pass.
    latencies_ms: Vec<f64>,
    /// Work of one pass (the same every pass).
    pass_work: Work,
    failures: Vec<String>,
}

/// Whole passes of untraced requests until `seconds` have passed and
/// [`MIN_SAMPLES`] latencies are in.
fn closed_loop(w: &mut dyn Workload, seconds: u64) -> Loop {
    let mut l = Loop { latencies_ms: Vec::new(), pass_work: Work::default(), failures: Vec::new() };
    let start = Instant::now();
    loop {
        let mut work = Work::default();
        for i in 0..w.requests() {
            let (dt, r) = w.request(i);
            l.latencies_ms.push(dt.as_secs_f64() * 1e3);
            match r {
                Ok(done) => {
                    work.units += done.units;
                    work.sim_cycles += done.sim_cycles;
                }
                Err(e) => l.failures.push(e),
            }
        }
        l.pass_work = work;
        let elapsed = start.elapsed();
        let done = elapsed.as_secs() >= seconds && l.latencies_ms.len() >= MIN_SAMPLES;
        if done || elapsed >= MAX_LOOP {
            return l;
        }
    }
}

/// Each request's latencies, request by request (the loop records them pass
/// after pass).
fn per_request(latencies_ms: &[f64], requests: usize) -> Vec<Vec<f64>> {
    (0..requests)
        .map(|i| latencies_ms.iter().skip(i).step_by(requests).copied().collect())
        .collect()
}

/// Fastest latency of each request.
fn best_of(own: &[Vec<f64>]) -> Vec<f64> {
    own.iter().map(|xs| xs.iter().copied().fold(f64::INFINITY, f64::min)).collect()
}

fn untraced(args: &Args) -> Result<bool, String> {
    let (mut setup_s, mut setup_mb) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        reset_peak();
        let start = Instant::now();
        let w = setup(args.workload, args.seed, None)?;
        setup_s.push(start.elapsed().as_secs_f64());
        setup_mb.push(peak_heap_bytes() as f64 / (1024.0 * 1024.0));
        last = Some(w);
    }
    let mut w = last.ok_or("no set-up ran")?;
    println!("setup {} x, {} requests per pass", SETUP_REPEATS, w.requests());

    let l = closed_loop(w.as_mut(), args.seconds);
    let n = l.latencies_ms.len();
    let mut failures = l.failures;
    failures.extend(w.check());
    let failed = report_failures(&failures);
    if !tail_is_supported(n, 90) {
        return Err(format!("{n} samples cannot support a 90th percentile"));
    }
    let own = per_request(&l.latencies_ms, w.requests());
    let best = best_of(&own);
    let typical = own.iter().map(|xs| median(xs)).sum::<Option<f64>>().ok_or("no samples")?;
    let per_second = |pass_ms: f64| l.pass_work.units as f64 * 1e3 / pass_ms;
    let modelled = w.modelled();
    let mut v = Values::new();
    v.insert("setup_s", median(&setup_s).ok_or("no set-up time")?);
    v.insert("best_throughput_rps", per_second(best.iter().sum()));
    v.insert("best_latency_p50_ms", hd_percentile(&best, 50).ok_or("no samples")?);
    v.insert("best_latency_p90_ms", hd_percentile(&best, 90).ok_or("no samples")?);
    v.insert("peak_heap_mb", median(&setup_mb).ok_or("no set-up peak")?);
    let alut = modelled.iter().find(|m| m.name == "alut_total").ok_or("no ALUT total")?;
    v.insert("alut_total", alut.value);

    for d in END_TO_END {
        let note = match d.name {
            "setup_s" | "peak_heap_mb" => format!("  (median of {SETUP_REPEATS} set-ups)"),
            "best_latency_p50_ms" | "best_latency_p90_ms" => {
                format!("  (over {} requests)", best.len())
            }
            _ => String::new(),
        };
        show(d.name, v[d.name], d.unit, &note);
    }
    let all = format!("  (n={n})");
    show("throughput_rps", per_second(typical), "1/s", "");
    show("latency_p50_ms", hd_percentile(&l.latencies_ms, 50).ok_or("no samples")?, "ms", &all);
    show("latency_p90_ms", hd_percentile(&l.latencies_ms, 90).ok_or("no samples")?, "ms", &all);
    show("failed_ratio", failed as f64 / n as f64, "ratio", &format!("  ({failed} of {n})"));
    if l.pass_work.sim_cycles > 0 {
        let mcycles = l.pass_work.sim_cycles as f64 / 1e6;
        show("sim_mcycles_per_s", mcycles * 1e3 / typical, "Mcycles/s", "");
    }
    for m in modelled.iter().filter(|m| m.name != "alut_total") {
        show(m.name, m.value, m.unit, &format!("  (seed {})", args.seed));
    }
    println!("{}", result_line(failed == 0, n as u64, failed, END_TO_END, &v)?);
    Ok(failed == 0)
}

/// Fold the events `t` recorded since event `seen` into `totals`; returns
/// the new event count.
fn fold(t: &Tracer, seen: usize, totals: &mut SpanTotals) -> Result<usize, String> {
    let events = t.recorder().events();
    totals.add(&spans_from_events(&events[seen..])?);
    Ok(events.len())
}

fn traced(args: &Args) -> Result<bool, String> {
    // The trace file keeps set-up and the first traced passes; later passes
    // record into a fresh tracer each, folded into the totals and dropped,
    // so memory stays bounded however long the run.
    let file = Tracer::new();
    let mut w = setup(args.workload, args.seed, Some(&file))?;
    let mut totals = SpanTotals::default();
    let mut kept = fold(&file, 0, &mut totals)?;
    let cache_before = w.cache_stats().unwrap_or_default();
    let mut run = TracedRun::default();
    let mut attempted = 0u64;
    let mut failures = Vec::new();
    let mut request_id = 0u64;
    let start = Instant::now();
    // Alternate an untraced and a traced pass, so drift in the host's speed
    // falls on both alike.
    while run.passes == 0
        || (start.elapsed().as_secs() < args.seconds && start.elapsed() < MAX_LOOP)
    {
        let pass = Instant::now();
        for i in 0..w.requests() {
            attempted += 1;
            if let Err(e) = w.request(i).1 {
                failures.push(e);
            }
        }
        run.untraced_wall += pass.elapsed();
        let to_file = kept < TRACE_FILE_EVENTS;
        let scratch = Tracer::new();
        let t = if to_file { &file } else { &scratch };
        let pass = Instant::now();
        for i in 0..w.requests() {
            attempted += 1;
            request_id += 1;
            let _root = t.request(request_id);
            if let Err(e) = w.traced_request(i, t) {
                failures.push(e);
            }
        }
        run.traced_wall += pass.elapsed();
        run.passes += 1;
        if to_file {
            kept = fold(&file, kept, &mut totals)?;
        } else {
            fold(&scratch, 0, &mut totals)?;
        }
    }
    let cache_after = w.cache_stats().unwrap_or_default();
    run.cache =
        (cache_after.compiles - cache_before.compiles, cache_after.hits - cache_before.hits);
    failures.extend(w.check());
    let failed = report_failures(&failures);

    let v = per_layer(&totals, &run);
    println!("traced {} passes", run.passes);
    let wall_us = run.traced_wall.as_secs_f64() * 1e6;
    for (layer, us) in totals.layer_self_us() {
        println!(
            "self-time {layer:<9} {:>12.3} ms  {:>6.2}% of traced wall",
            *us as f64 / 1e3,
            100.0 * *us as f64 / wall_us
        );
    }
    for d in PER_LAYER {
        show(d.name, v[d.name], d.unit, "");
    }
    let dir = Path::new(TRACE_DIR);
    let path = dir.join(format!("trace-{}-seed{}.json", args.workload.name(), args.seed));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, file.recorder().to_chrome_json()))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("trace of set-up and the first traced passes written to {}", path.display());
    println!("{}", result_line(failed == 0, attempted, failed, PER_LAYER, &v)?);
    Ok(failed == 0)
}
