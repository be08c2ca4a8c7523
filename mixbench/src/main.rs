//! mixbench — the mixsig benchmark.
//!
//! ```text
//! mixbench --workload fig4|c1_dies_journaled|adc_yield --seed N
//!          --seconds S --trace 0|1 [--scale full|tiny]
//!          [--plant-mismatch] [--record]
//! ```
//!
//! Builds the workload's inputs from the seed, repeats fixed-size
//! passes of it for about `S` seconds, checks every pass's outputs and
//! work counts, and prints human-readable lines followed by one JSON
//! line: the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). See README.md for the workloads and metrics.

mod adc;
mod ctx;
mod dies;
mod fig4;
mod measure;
mod reference;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::Instant;

use obs::profile::Phase;

use ctx::{Ctx, Mode};
use measure::{layer_totals, median, percentile, top_level_ns, LayerTotals};

/// Input size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's stated sizes.
    Full,
    /// A few faults / dies, for the benchmark's self-tests.
    Tiny,
}

/// Campaign worker threads (the machine the benchmark was sized on has
/// two cores).
const WORKERS: usize = 2;

/// Where journals, traces and count ledgers go, relative to the
/// working directory.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    plant: bool,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        plant: false,
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--scale" => {
                args.scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    v => return Err(format!("--scale takes full or tiny, not {v}")),
                }
            }
            "--plant-mismatch" => args.plant = true,
            "--record" => args.record = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !["fig4", "c1_dies_journaled", "adc_yield"].contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be fig4, c1_dies_journaled or adc_yield (got {:?})",
            args.workload
        ));
    }
    Ok(args)
}

enum Workload {
    Fig4(fig4::Fig4),
    Dies(dies::Dies),
    Adc(adc::Adc),
}

impl Workload {
    fn pass(&self, ctx: &Ctx) {
        match self {
            Workload::Fig4(w) => w.pass(ctx),
            Workload::Dies(w) => {
                w.reset();
                w.pass(ctx);
            }
            Workload::Adc(w) => w.pass(ctx),
        }
    }

    /// Post-pass checks that are not part of the timed work.
    fn after_pass(&self, ctx: &Ctx) {
        if let Workload::Dies(w) = self {
            w.check_journals(ctx);
        }
    }

    fn cross_check(&self, outputs: &BTreeMap<String, f64>) -> Vec<String> {
        match self {
            Workload::Fig4(_) => Vec::new(),
            Workload::Dies(w) => w.cross_check(outputs),
            Workload::Adc(w) => w.cross_check(outputs),
        }
    }
}

/// Builds the inputs once, timing the named sub-steps.
fn setup(args: &Args, journal_dir: &Path) -> (Workload, Vec<(&'static str, f64)>) {
    let t = Instant::now();
    match args.workload.as_str() {
        "fig4" => {
            let w = fig4::setup(args.scale);
            (
                Workload::Fig4(w),
                vec![("transtest.circuits", measure::ms_since(t))],
            )
        }
        "c1_dies_journaled" => {
            let (w, fabricate_ms, circuits_ms) = dies::setup(args.scale, args.seed, journal_dir);
            (
                Workload::Dies(w),
                vec![
                    ("msbist.device.fabricate", fabricate_ms),
                    ("transtest.circuits", circuits_ms),
                ],
            )
        }
        _ => {
            let (w, fabricate_ms) = adc::setup(args.scale, args.seed);
            (
                Workload::Adc(w),
                vec![("msbist.device.fabricate", fabricate_ms)],
            )
        }
    }
}

/// Seconds of passes between two batches of set-up samples, the
/// length of one batch, and the most builds one batch makes.
const SETUP_EVERY_S: f64 = 2.0;
const SETUP_BATCH_S: f64 = 0.05;
const SETUP_MAX_BUILDS: usize = 400;

/// Timings of repeated set-ups, whole and by named sub-step.
#[derive(Default)]
struct SetupSamples {
    times: Vec<f64>,
    parts: BTreeMap<&'static str, Vec<f64>>,
}

impl SetupSamples {
    /// Builds the inputs at least `min` times and until `seconds` have
    /// gone (at most [`SETUP_MAX_BUILDS`] times), and returns the first
    /// build.
    fn sample(&mut self, args: &Args, journal_dir: &Path, min: usize, seconds: f64) -> Workload {
        let started = Instant::now();
        let mut first = None;
        for n in 1..=SETUP_MAX_BUILDS {
            let t = Instant::now();
            let (w, parts) = setup(args, journal_dir);
            self.times.push(t.elapsed().as_secs_f64());
            for (name, ms) in parts {
                self.parts.entry(name).or_default().push(ms);
            }
            first.get_or_insert(w);
            if n >= min && started.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        first.expect("at least one build")
    }
}

/// What one pass produced.
struct PassResult {
    mode: Mode,
    workers: usize,
    wall_s: f64,
    cpu_s: f64,
    ops: u64,
    op_ms: Vec<f64>,
    failures: Vec<String>,
    unsimulated: Vec<String>,
    outputs: BTreeMap<String, f64>,
    /// Work counts that must repeat exactly.
    counts: Vec<(String, u64)>,
    /// Per-layer metrics (traced passes only).
    layers: Vec<(String, f64, &'static str)>,
    spans: Vec<measure::Span>,
}

fn run_pass(w: &Workload, mode: Mode, workers: usize) -> PassResult {
    let ctx = Ctx::new(mode, workers);
    let cpu0 = measure::process_cpu_s();
    let t0 = Instant::now();
    w.pass(&ctx);
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = measure::process_cpu_s() - cpu0;
    w.after_pass(&ctx);

    let solver = ctx.solver();
    let mut counts = vec![
        (
            "anasim.newton_iterations".to_owned(),
            solver.newton_iterations,
        ),
        (
            "transtest.response.calls".to_owned(),
            ctx.response_calls.load(Ordering::Relaxed),
        ),
        (
            "faultsim.campaign.failed".to_owned(),
            ctx.campaign_failed.load(Ordering::Relaxed),
        ),
        (
            "faultsim.journal.records".to_owned(),
            ctx.journal_records.load(Ordering::Relaxed),
        ),
        ("operations".to_owned(), ctx.ops.load(Ordering::Relaxed)),
    ];
    if mode != Mode::Plain {
        for phase in Phase::ALL {
            counts.push((
                format!("{}.{}.calls", layer_of(phase), phase.label()),
                solver.phases.calls(phase),
            ));
        }
    }
    let spans = ctx.tracer().map(measure::Tracer::spans).unwrap_or_default();
    let layers = if mode == Mode::Traced {
        layer_metrics(&ctx, &spans, wall_s)
    } else {
        Vec::new()
    };
    let op_ms = std::mem::take(&mut *ctx.op_ms.lock().expect("op lock"));
    let failures = std::mem::take(&mut *ctx.failures.lock().expect("failures lock"));
    let unsimulated = std::mem::take(&mut *ctx.unsimulated.lock().expect("unsimulated lock"));
    let outputs = std::mem::take(&mut *ctx.outputs.lock().expect("outputs lock"));
    PassResult {
        mode,
        workers,
        wall_s,
        cpu_s,
        ops: ctx.ops.load(Ordering::Relaxed),
        op_ms,
        failures,
        unsimulated,
        outputs,
        counts,
        layers,
        spans,
    }
}

/// The layer a solver phase belongs to: linear-algebra kernels are
/// `linsys`, the Newton/transient machinery around them `anasim`.
fn layer_of(phase: Phase) -> &'static str {
    match phase {
        Phase::Factor | Phase::Refactor | Phase::Symbolic | Phase::BackSubstitute => "linsys",
        _ => "anasim",
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metrics of a traced pass (setup-time and overhead metrics
/// are added by the caller).
fn layer_metrics(
    ctx: &Ctx,
    spans: &[measure::Span],
    wall_s: f64,
) -> Vec<(String, f64, &'static str)> {
    let totals = layer_totals(spans);
    let get = |name: &str| -> LayerTotals {
        totals
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, t)| t.clone())
            .unwrap_or_default()
    };
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut m: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put =
        |name: &str, value: f64, unit: &'static str| m.push((name.to_owned(), value, unit));

    let response = get("transtest.response");
    put("transtest.response.calls", response.calls as f64, "count");
    put("transtest.response.ms", ms(response.ns), "ms");
    put(
        "transtest.response.ms_per_call",
        ratio(ms(response.ns), response.calls as f64),
        "ms",
    );
    put(
        "transtest.response.unique_pct",
        100.0 * ratio(ctx.distinct_netlists() as f64, response.calls as f64),
        "%",
    );
    let impulse = get("transtest.impulse");
    put("transtest.impulse.calls", impulse.calls as f64, "count");
    put("transtest.impulse.ms", ms(impulse.ns), "ms");
    put("transtest.impulse.self_ms", ms(impulse.self_ns), "ms");

    let campaign = get("faultsim.campaign");
    put("faultsim.campaign.calls", campaign.calls as f64, "count");
    put("faultsim.campaign.ms", ms(campaign.ns), "ms");
    put("faultsim.campaign.self_ms", ms(campaign.self_ns), "ms");
    put(
        "faultsim.campaign.golden_ms",
        ms(ctx.golden_ns.load(Ordering::Relaxed)),
        "ms",
    );
    put(
        "faultsim.campaign.busy_pct",
        100.0
            * ratio(
                ctx.extraction_ns.load(Ordering::Relaxed) as f64,
                ctx.workers as f64 * campaign.ns as f64,
            ),
        "%",
    );
    put(
        "faultsim.campaign.escalated",
        ctx.escalated.load(Ordering::Relaxed) as f64,
        "count",
    );
    put(
        "faultsim.campaign.failed",
        ctx.campaign_failed.load(Ordering::Relaxed) as f64,
        "count",
    );
    let inject = get("faultsim.inject");
    put("faultsim.inject.calls", inject.calls as f64, "count");
    put(
        "faultsim.inject.ns_per_call",
        ratio(inject.ns as f64, inject.calls as f64),
        "ns",
    );
    put(
        "faultsim.journal.records",
        ctx.journal_records.load(Ordering::Relaxed) as f64,
        "count",
    );
    put(
        "faultsim.journal.bytes",
        ctx.journal_bytes.load(Ordering::Relaxed) as f64,
        "B",
    );
    let corr = get("sigproc.correlation");
    put("sigproc.correlation.calls", corr.calls as f64, "count");
    put(
        "sigproc.correlation.ns_per_call",
        ratio(corr.ns as f64, corr.calls as f64),
        "ns",
    );

    let s = ctx.solver();
    let hazards: u64 = s.hazards().iter().map(|(_, n)| n).sum();
    let demotions: u64 = s.demotions().iter().map(|(_, n)| n).sum();
    put(
        "anasim.newton_iterations",
        s.newton_iterations as f64,
        "count",
    );
    put("anasim.steps_accepted", s.steps_accepted as f64, "count");
    put("anasim.steps_rejected", s.steps_rejected as f64, "count");
    put(
        "anasim.factor_reuse_pct",
        100.0
            * ratio(
                s.factor_reuse_hits as f64,
                (s.factor_reuse_hits + s.factor_reuse_misses) as f64,
            ),
        "%",
    );
    put("anasim.hazards", hazards as f64, "count");
    put("anasim.demotions", demotions as f64, "count");
    put(
        "anasim.ns_per_newton",
        ratio(response.ns as f64, s.newton_iterations as f64),
        "ns",
    );
    for phase in [
        Phase::Stamp,
        Phase::DeviceEval,
        Phase::Residual,
        Phase::StepControl,
        Phase::DcSolve,
        Phase::Factor,
        Phase::Refactor,
        Phase::Symbolic,
        Phase::BackSubstitute,
    ] {
        let name = format!("{}.{}", layer_of(phase), phase.label());
        let (calls, ns) = (s.phases.calls(phase), s.phases.ns(phase));
        put(&format!("{name}.calls"), calls as f64, "count");
        put(
            &format!("{name}.ns_per_call"),
            ratio(ns as f64, calls as f64),
            "ns",
        );
    }
    for name in ["msbist.bist.quick_tests", "msbist.charac"] {
        let t = get(name);
        put(&format!("{name}.calls"), t.calls as f64, "count");
        put(
            &format!("{name}.ns_per_call"),
            ratio(t.ns as f64, t.calls as f64),
            "ns",
        );
    }
    let top = top_level_ns(spans) as f64 / 1e9;
    put("unattributed_pct", 100.0 * ratio(wall_s - top, wall_s), "%");
    m
}

/// FNV-1a hash of this executable, so count ledgers are per build.
fn binary_hash() -> u64 {
    let bytes = std::env::current_exe()
        .and_then(std::fs::read)
        .unwrap_or_default();
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Compares `counts` with the ledger an earlier run of this same build,
/// workload, scale and seed left, or starts the ledger. Returns the
/// counts that differed.
fn check_ledger(args: &Args, tag: &str, counts: &[(String, u64)]) -> Vec<String> {
    let dir = Path::new(OUT_DIR).join("counts");
    let path = dir.join(format!(
        "{}-{:?}-{}-{tag}-{:016x}.txt",
        args.workload,
        args.scale,
        args.seed,
        binary_hash()
    ));
    let text: String = counts.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    match std::fs::read_to_string(&path) {
        Ok(previous) => {
            let before: BTreeMap<&str, &str> =
                previous.lines().filter_map(|l| l.split_once(' ')).collect();
            counts
                .iter()
                .filter(|(k, v)| before.get(k.as_str()) != Some(&v.to_string().as_str()))
                .map(|(k, v)| {
                    format!(
                        "{k} = {v}, an earlier run of this build and seed counted {}",
                        before.get(k.as_str()).unwrap_or(&"nothing")
                    )
                })
                .collect()
        }
        Err(_) => {
            let _ = std::fs::create_dir_all(&dir);
            let _ = std::fs::write(&path, text);
            Vec::new()
        }
    }
}

fn json_metrics(metrics: &[(String, f64, &'static str)]) -> String {
    let mut out = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push('}');
    out
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mixbench: {e}");
            return ExitCode::from(2);
        }
    };
    let journal_dir = PathBuf::from(OUT_DIR).join(format!("journal-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&journal_dir) {
        eprintln!("mixbench: cannot create {}: {e}", journal_dir.display());
        return ExitCode::from(1);
    }
    let code = run(&args, &journal_dir, process_start);
    let _ = std::fs::remove_dir_all(&journal_dir);
    code
}

fn run(args: &Args, journal_dir: &Path, process_start: Instant) -> ExitCode {
    println!(
        "mixbench {} seed {} scale {:?} trace {}",
        args.workload,
        args.seed,
        args.scale,
        u8::from(args.trace)
    );
    if args.workload == "fig4" {
        println!("note: fig4 runs the nominal-process paper circuits; the seed is ignored");
    }

    // Set-up is repeated at the start and again between passes, so its
    // median spans the whole run as the pass timings do; the first
    // build is the one the passes use.
    let mut setups = SetupSamples::default();
    let workload = setups.sample(args, journal_dir, 7, 0.25);
    println!(
        "setup: {} builds, median {:.6} s; first timed call {:.3} s after process start",
        setups.times.len(),
        median(&setups.times),
        process_start.elapsed().as_secs_f64()
    );

    // Pass 1 is a warm-up: it fills caches and the allocator and is
    // checked like every pass, but only the passes after it are timed,
    // for about `--seconds` from its end.
    let mut passes: Vec<PassResult> = Vec::new();
    let mut started = Instant::now();
    let budget = if args.record { 0.0 } else { args.seconds };
    let mut peak_rss_mb = 0.0;
    let mut last_setup = Instant::now();
    loop {
        let mode = if args.trace && !passes.is_empty() && passes.len().is_multiple_of(2) {
            Mode::Traced
        } else {
            Mode::Plain
        };
        let p = run_pass(&workload, mode, WORKERS);
        println!(
            "pass {}{}: {:?}, {} workers, {:.3} s wall, {:.3} s cpu, {} operations",
            passes.len() + 1,
            if passes.is_empty() { " (warm-up)" } else { "" },
            p.mode,
            p.workers,
            p.wall_s,
            p.cpu_s,
            p.ops
        );
        let wall = p.wall_s;
        passes.push(p);
        if last_setup.elapsed().as_secs_f64() >= SETUP_EVERY_S {
            drop(setups.sample(args, journal_dir, 1, SETUP_BATCH_S));
            last_setup = Instant::now();
        }
        if passes.len() == 1 {
            // Later passes add only the benchmark's own bookkeeping.
            peak_rss_mb = measure::peak_rss_mb();
            started = Instant::now();
            continue;
        }
        // A traced run needs a traced and an untraced timed pass.
        let traced_done = !args.trace || passes.len() >= 3;
        if traced_done && started.elapsed().as_secs_f64() >= budget - 0.5 * wall {
            break;
        }
    }
    println!(
        "setup: {} builds over the run, median {:.6} s",
        setups.times.len(),
        median(&setups.times)
    );
    if args.trace && args.workload == "fig4" {
        // Work counts must not depend on the worker count.
        let p = run_pass(&workload, Mode::Profiled, 1);
        println!(
            "pass {}: {:?}, 1 worker, {:.3} s wall (determinism reference)",
            passes.len() + 1,
            p.mode,
            p.wall_s
        );
        passes.push(p);
    }

    if args.record {
        for (key, value) in &passes[0].outputs {
            println!("{} {key} {value:?}", args.seed);
        }
        return ExitCode::SUCCESS;
    }

    // Checks: references, pass-to-pass determinism, cross-checks.
    // Per-fault Figure-4 values do not depend on how many faults run;
    // the population counts of the other workloads do.
    let complete = args.scale == Scale::Full;
    let mut reference = if complete || args.workload == "fig4" {
        reference::lookup(&args.workload, args.seed)
    } else {
        BTreeMap::new()
    };
    if args.plant {
        // Shift one reference value this run produces, as a silent
        // drift of the program's output would.
        if let Some((_, v)) = reference
            .iter_mut()
            .find(|(k, _)| passes[0].outputs.contains_key(k.as_str()))
        {
            *v += 10.0;
        }
    }
    if reference.is_empty() {
        println!(
            "note: no recorded reference for this seed; cross-checks and determinism still apply"
        );
    }
    let mut failures: Vec<String> = Vec::new();
    let mut failed: u64 = 0;
    for (i, p) in passes.iter().enumerate() {
        let n = i + 1;
        failed += p.failures.len() as u64;
        failures.extend(p.failures.iter().map(|f| format!("pass {n}: {f}")));
        let bad = reference::compare(&reference, &p.outputs, complete);
        failed += bad.len() as u64;
        failures.extend(bad.into_iter().map(|f| format!("pass {n} reference: {f}")));
        // A campaign fault that did not simulate is a failed operation
        // unless the seed's reference records the same outcome (the
        // reference lists only campaigns where it is not 0). Without a
        // reference for the seed nothing pins these outcomes; they are
        // printed and counted in `faultsim.campaign.failed` only.
        for (key, &got) in &p.outputs {
            if key.ends_with("/sim_failed")
                && got > 0.0
                && !reference.is_empty()
                && !reference.contains_key(key)
            {
                failed += got as u64;
                failures.push(format!("pass {n}: {key} = {got}, not in the reference"));
            }
        }
        if p.outputs != passes[0].outputs {
            failed += 1;
            failures.push(format!("pass {n}: outputs differ from pass 1"));
        }
        let first = passes
            .iter()
            .find(|q| q.mode == Mode::Plain)
            .expect("a plain pass");
        let first_profiled = passes.iter().find(|q| q.mode != Mode::Plain);
        let mut compare_counts = |base: &PassResult| {
            for ((k, v), (_, b)) in p.counts.iter().zip(&base.counts) {
                if v != b {
                    failed += 1;
                    failures.push(format!(
                        "determinism: {k} = {v} in pass {n} ({} workers), {b} in an earlier pass ({} workers)",
                        p.workers, base.workers
                    ));
                }
            }
        };
        compare_counts(first);
        if let Some(fp) = first_profiled.filter(|_| p.mode != Mode::Plain) {
            compare_counts(fp);
        }
    }
    let cross = workload.cross_check(&passes[0].outputs);
    failed += cross.len() as u64;
    failures.extend(cross.into_iter().map(|f| format!("cross-check: {f}")));
    for p in passes
        .iter()
        .filter(|p| p.workers == WORKERS)
        .take(1)
        .chain(passes.iter().filter(|p| p.mode == Mode::Traced).take(1))
    {
        let tag = if p.mode == Mode::Plain {
            "plain"
        } else {
            "profiled"
        };
        let bad = check_ledger(args, tag, &p.counts);
        failed += bad.len() as u64;
        failures.extend(
            bad.into_iter()
                .map(|f| format!("determinism across runs: {f}")),
        );
    }

    let attempted: u64 = passes.iter().map(|p| p.ops).sum::<u64>().max(1);
    let failed = failed.min(attempted);
    // Timings come from the untraced passes after the warm-up.
    let plain: Vec<&PassResult> = passes[1..]
        .iter()
        .filter(|p| p.mode == Mode::Plain)
        .collect();
    let op_ms: Vec<f64> = plain.iter().flat_map(|p| p.op_ms.iter().copied()).collect();
    let failed_pct = 100.0 * failed as f64 / attempted as f64;

    let unit_name = if args.workload == "adc_yield" {
        "die"
    } else {
        "fault"
    };
    println!(
        "checks: {} reference values, {} passes; failed_pct {failed_pct} % ({failed} of {attempted} operations)",
        reference.len(),
        passes.len()
    );
    for u in &passes[0].unsimulated {
        println!("did not simulate (pass 1): {u}");
    }
    for f in failures.iter().take(20) {
        println!("FAIL {f}");
    }
    if failures.len() > 20 {
        println!("FAIL ... and {} more", failures.len() - 20);
    }

    let metrics: Vec<(String, f64, &'static str)> = if args.trace {
        let traced = passes
            .iter()
            .find(|p| p.mode == Mode::Traced)
            .expect("a traced pass");
        let mut m = traced.layers.clone();
        let part = |name| setups.parts.get(name).map_or(0.0, |v| median(v));
        m.insert(
            0,
            (
                "transtest.circuits.ms".into(),
                part("transtest.circuits"),
                "ms",
            ),
        );
        m.push((
            "msbist.device.fabricate_ms".into(),
            part("msbist.device.fabricate"),
            "ms",
        ));
        let traced_wall: Vec<f64> = passes
            .iter()
            .filter(|p| p.mode == Mode::Traced)
            .map(|p| p.wall_s)
            .collect();
        let plain_wall: Vec<f64> = plain.iter().map(|p| p.wall_s).collect();
        m.push((
            "trace_overhead_pct".into(),
            100.0 * (median(&traced_wall) / median(&plain_wall) - 1.0),
            "%",
        ));
        let trace_path =
            Path::new(OUT_DIR).join(format!("trace-{}-{}.json", args.workload, args.seed));
        match std::fs::write(&trace_path, measure::chrome_trace(&traced.spans)) {
            Ok(()) => println!(
                "trace: {} spans written to {}",
                traced.spans.len(),
                trace_path.display()
            ),
            Err(e) => println!("trace: not written ({e})"),
        }
        println!(
            "{:<28} {:>8} {:>12} {:>12} {:>14}",
            "span", "calls", "total ms", "self ms", "ns/call"
        );
        for (name, t) in layer_totals(&traced.spans) {
            println!(
                "{name:<28} {:>8} {:>12.3} {:>12.3} {:>14.0}",
                t.calls,
                t.ns as f64 / 1e6,
                t.self_ns as f64 / 1e6,
                ratio(t.ns as f64, t.calls as f64)
            );
        }
        m
    } else {
        let walls: Vec<f64> = plain.iter().map(|p| p.wall_s).collect();
        let cpus: Vec<f64> = plain.iter().map(|p| p.cpu_s).collect();
        let rates: Vec<f64> = plain.iter().map(|p| p.ops as f64 / p.wall_s).collect();
        let m = vec![
            ("setup_s".to_owned(), median(&setups.times), "s"),
            ("wall_s".to_owned(), median(&walls), "s"),
            ("cpu_s".to_owned(), median(&cpus), "s"),
            ("ops_per_s".to_owned(), median(&rates), "1/s"),
            ("op_ms_p50".to_owned(), percentile(&op_ms, 50.0), "ms"),
            ("op_ms_p90".to_owned(), percentile(&op_ms, 90.0), "ms"),
            ("peak_rss_mb".to_owned(), peak_rss_mb, "MB"),
        ];
        println!(
            "{}: {} per s; {unit_name}_ms p50 {:.3} / p90 {:.3} over {} samples; failed_pct {failed_pct}",
            if unit_name == "die" { "dies" } else { "fault_sims" },
            median(&rates),
            percentile(&op_ms, 50.0),
            percentile(&op_ms, 90.0),
            op_ms.len()
        );
        m
    };
    for (name, value, unit) in &metrics {
        println!("metric {name} = {value} {unit}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        json_metrics(&metrics)
    );
    ExitCode::SUCCESS
}
