//! The Astro runtime benchmark: one command that starts real 4-replica
//! clusters over loopback TCP with HMAC sessions, drives one workload,
//! checks the results, and prints every metric by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path astrobench/Cargo.toml -- \
//!     --workload astro2-open --seed 1 --seconds 10 --trace 0 [--out result.json]
//! ```
//!
//! `--trace 0` runs the cluster through the stock public constructors and
//! reports the end-to-end metrics. `--trace 1` runs that untraced run
//! first, then a traced replay of exactly the same payments with every
//! layer's trait wrapped, and reports the per-layer metrics, the
//! tracing overhead, and whether the replay settled the same set.
//! `--workload all` runs every workload both ways.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! A failed correctness check prints it with `"correct": false` and exits
//! with code 1.

mod check;
mod drive;
mod metrics;
mod spec;
mod stats;
mod sys;
mod trace;

use drive::{RunData, Until};
use metrics::{metric, Metric, Window};
use spec::{Phase, Workload};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cluster starts per run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 15;
/// Closed loop: time before the measured window opens.
const CLOSED_WARMUP: Duration = Duration::from_secs(1);
/// Where runs keep their storage directories, relative to the working
/// directory; removed when the run ends.
const DATA_ROOT: &str = ".astrobench-data";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10, trace: false, out: None };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&args.seconds) {
                    return Err("--seconds must be 1..=600".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// The result of one workload: what the JSON line and `--out` report.
struct Outcome {
    workload: Workload,
    correct: bool,
    attempted: usize,
    failed: usize,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    notes: Vec<String>,
    filesystem: String,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("astrobench: {e}");
            eprintln!(
                "usage: astrobench --workload <astro2-open|astro1-closed|astro1-durable|all> \
                 --seed <n> --seconds <s> --trace <0|1> [--out <path>]"
            );
            std::process::exit(2);
        }
    };
    let workloads: Vec<Workload> = if args.workload == "all" {
        Workload::ALL.to_vec()
    } else {
        match Workload::parse(&args.workload) {
            Some(w) => vec![w],
            None => {
                eprintln!("astrobench: unknown workload {}", args.workload);
                std::process::exit(2);
            }
        }
    };
    let trace = args.trace || workloads.len() > 1;
    let root = PathBuf::from(DATA_ROOT).join(std::process::id().to_string());
    let mut outcomes = Vec::new();
    for w in workloads {
        match run_workload(w, args.seed, args.seconds, trace, &root) {
            Ok(o) => outcomes.push(o),
            Err(e) => {
                let _ = std::fs::remove_dir_all(&root);
                eprintln!("astrobench: {}: {e}", w.name());
                std::process::exit(2);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir(DATA_ROOT);

    let single = outcomes.len() == 1;
    let mut shown: Vec<(String, Metric)> = Vec::new();
    for o in &outcomes {
        println!(
            "== {} (seed {}, {} s, nproc {})",
            o.workload.name(),
            args.seed,
            args.seconds,
            sys::nproc()
        );
        for note in &o.notes {
            println!("   {note}");
        }
        for m in o.end_to_end.iter().chain(&o.per_layer) {
            println!("   {:<34} {:>14.4} {}", m.name, m.value, m.unit);
        }
        let reported = if !single {
            o.end_to_end.iter().chain(&o.per_layer).collect::<Vec<_>>()
        } else if args.trace {
            o.per_layer.iter().collect()
        } else {
            o.end_to_end.iter().collect()
        };
        for m in reported {
            let key =
                if single { m.name.clone() } else { format!("{}/{}", o.workload.name(), m.name) };
            shown.push((key, m.clone()));
        }
    }
    let correct = outcomes.iter().all(|o| o.correct);
    let attempted: usize = outcomes.iter().map(|o| o.attempted).sum();
    let failed: usize = outcomes.iter().map(|o| o.failed).sum();
    if let Some(out) = &args.out {
        if let Err(e) = std::fs::write(out, result_document(&args, &outcomes)) {
            eprintln!("astrobench: writing {}: {e}", out.display());
            std::process::exit(2);
        }
    }
    let metrics: Vec<String> = shown
        .iter()
        .map(|(k, m)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(k),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

/// A fresh, empty directory under `root`.
fn fresh_dir(root: &Path, name: &str) -> std::io::Result<PathBuf> {
    let dir = root.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn run_workload(
    w: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    root: &Path,
) -> Result<Outcome, Box<dyn std::error::Error>> {
    let stream = w.stream(seed);
    let phases: Option<Vec<Phase>> = w.is_open().then(|| {
        let (warmup, rungs) = spec::open_schedule(seconds);
        std::iter::once(warmup).chain(rungs).collect()
    });
    let conserved = (!w.is_open()).then_some(spec::CLOSED_INITIAL);

    // Set-up, sampled: the median of several cold starts, the last of
    // which runs the workload.
    let mut setups = Vec::with_capacity(SETUP_SAMPLES);
    let mut sut = None;
    for i in 0..SETUP_SAMPLES {
        let dir = fresh_dir(root, &format!("setup-{i}"))?;
        let started = Instant::now();
        let s = drive::start_stock(w, &dir)?;
        setups.push(started.elapsed().as_secs_f64());
        if i + 1 < SETUP_SAMPLES {
            s.shutdown();
            std::fs::remove_dir_all(&dir)?;
        } else {
            sut = Some(s);
        }
    }
    let filesystem = sys::filesystem_of(root);
    let sut = sut.expect("SETUP_SAMPLES > 0");
    let until = Until::Time { warmup: CLOSED_WARMUP, measure: Duration::from_secs(seconds) };
    let mut run = drive::run(sut, &stream, phases.as_deref(), until, None);
    let verdict = check::check(&stream, run.submitted, &run.logs, &run.finals, conserved);
    // Only replica 0's settled set is needed from here on; the logs of a
    // closed-loop run hold millions of payments.
    let settled = check::settled_set(&stream, &run.logs[0]);
    run.logs = Vec::new();
    let failed = run.submit_errors + verdict.unsettled;
    let mut notes: Vec<String> =
        verdict.violations.iter().map(|v| format!("VIOLATION: {v}")).collect();
    let mut correct = verdict.violations.is_empty();

    let window = Window::of(&run);
    let e2e = end_to_end(&run, &window, &setups, &mut notes);
    // Wall-clock figures of the untraced run, reported with the per-layer
    // metrics: on a shared machine they follow the load other processes
    // put on it by more than any regression bound allows.
    let (throughput, p50, p99) = metrics::sliced(&run, &window)
        .map_or((f64::NAN, f64::NAN, f64::NAN), |s| (s.throughput, s.p50, s.p99));
    let sustained_pps = sustained(&run, &window, phases.as_deref(), &mut notes);
    let fail_frac = failed as f64 / run.submitted.max(1) as f64;
    notes.push(format!("attempted {}, failed {failed} (fail_frac {fail_frac:.6})", run.submitted));

    let mut per_layer = Vec::new();
    if trace {
        let stats = Arc::new(trace::Stats::default());
        let dir = fresh_dir(root, "traced")?;
        let sut = drive::start_traced(w, &dir, &stats)?;
        let until = Until::Count { count: run.submitted, from: run.window.0, to: run.window.1 };
        let traced = drive::run(sut, &stream, phases.as_deref(), until, Some(&stats));
        let tv = check::check(&stream, traced.submitted, &traced.logs, &traced.finals, conserved);
        notes.extend(tv.violations.iter().map(|v| format!("VIOLATION (traced): {v}")));
        correct &= tv.violations.is_empty();
        // Equivalence: the replay settles the same set of payments as the
        // untraced run, with agreeing replicas (checked above).
        let same = settled == check::settled_set(&stream, &traced.logs[0]);
        if !same || traced.submitted != run.submitted {
            notes.push("VIOLATION: the traced replay settled a different set of payments".into());
            correct = false;
        }
        let tw = Window::of(&traced);
        per_layer = metrics::per_layer(&traced, &tw);
        let (untraced_tp, untraced_p50) = headline(&run, &window);
        let (traced_tp, traced_p50) = headline(&traced, &tw);
        per_layer.extend([
            metric("bench.trace_overhead_throughput", traced_tp / untraced_tp, "ratio"),
            metric("bench.trace_overhead_p50", traced_p50 / untraced_p50, "ratio"),
            metric("throughput_pps", throughput, "1/s"),
            metric("latency_p50_ms", p50, "ms"),
            metric("latency_p99_ms", p99, "ms"),
            metric("sustained_pps", sustained_pps, "1/s"),
            metric("fail_frac", fail_frac, "ratio"),
            metric("rss_peak_mb", run.marks.1.rss_peak_mb, "MiB"),
        ]);
        notes.push(format!(
            "traced replay: {} payments, same settled set: {same}; runtime.verify.cache_hit_ratio \
             counts verdicts shared across replicas of one process, which separate replica \
             processes would each compute",
            traced.submitted
        ));
    }
    let _ = std::fs::remove_dir_all(root);
    Ok(Outcome {
        workload: w,
        correct,
        attempted: run.submitted,
        failed,
        end_to_end: e2e,
        per_layer,
        notes,
        filesystem,
    })
}

/// The throughput and median latency a tracing-overhead ratio compares:
/// both over the run's measured window, sliced as the end-to-end ones.
fn headline(run: &RunData, window: &Window) -> (f64, f64) {
    metrics::sliced(run, window).map_or((f64::NAN, f64::NAN), |s| (s.throughput, s.p50))
}

/// The end-to-end metrics of an untraced run, over its measured window:
/// the closed loop's timed window, or the open loop's nominal rung.
fn end_to_end(
    run: &RunData,
    window: &Window,
    setups: &[f64],
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let sliced = metrics::sliced(run, window);
    if let Some(s) = &sliced {
        let list = |v: &[f64]| v.iter().map(|x| format!("{x:.1}")).collect::<Vec<_>>().join(" ");
        notes.push(format!(
            "window: {:.2} s, {} payments settled, latency sampled on {} (p99 {:.3} ms); time \
             slices: throughput [{}] /s, p50 [{}] ms",
            window.seconds(),
            window.confirmed,
            s.samples,
            s.p99,
            list(&s.slice_throughput),
            list(&s.slice_p50),
        ));
    }
    let cpu = run.marks.1.cpu_s - run.marks.0.cpu_s;
    vec![
        metric("setup_s", stats::median(setups).unwrap_or(f64::NAN), "s"),
        metric("cpu_us_per_payment", cpu * 1e6 / window.confirmed.max(1) as f64, "us"),
    ]
}

/// The highest offered rate the cluster sustained: on the open loop, the
/// settle rate achieved on the highest rung of the ladder that met the
/// p99 limit without a growing backlog (0 if the nominal rung failed);
/// a closed loop sustains the rate it settles.
fn sustained(
    run: &RunData,
    window: &Window,
    phases: Option<&[Phase]>,
    notes: &mut Vec<String>,
) -> f64 {
    let Some(phases) = phases else { return window.throughput() };
    let reports = metrics::rungs(run, &phases[1..]);
    for r in &reports {
        notes.push(format!(
            "rung {:>6.0}/s: achieved {:>7.1}/s, p50 {:>8.2} ms, p99 {:>8.2} ms (n={}), \
             missing {}, backlog {} -> {}, {}",
            r.offered,
            r.achieved,
            r.latency.map_or(f64::NAN, |l| l.p50),
            r.latency.map_or(f64::NAN, |l| l.p99),
            r.latency.map_or(0, |l| l.count),
            r.missing,
            r.backlog_mid,
            r.backlog_end,
            if r.passes(spec::OPEN_P99_LIMIT_MS) { "sustained" } else { "fails" },
        ));
    }
    if let Some(k) = run.stopped_at {
        notes.push(format!("ladder stopped at payment {k}: the backlog ran away"));
    }
    stats::sustained_rung(&reports, spec::OPEN_P99_LIMIT_MS).map_or(0.0, |i| reports[i].achieved)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with all its digits; non-finite values become `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The `--out` document: every metric of every workload plus the run's
/// provenance (seed, nproc, revision, filesystem of the durable data).
fn result_document(args: &Args, outcomes: &[Outcome]) -> String {
    let metric_list = |ms: &[Metric]| -> String {
        let items: Vec<String> = ms
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!("{{{}}}", items.join(", "))
    };
    let runs: Vec<String> = outcomes
        .iter()
        .map(|o| {
            let notes: Vec<String> = o.notes.iter().map(|n| json_str(n)).collect();
            format!(
                "{{\"workload\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
                 \"filesystem\": {}, \"end_to_end\": {}, \"per_layer\": {}, \"notes\": [{}]}}",
                json_str(o.workload.name()),
                o.correct,
                o.attempted,
                o.failed,
                json_str(&o.filesystem),
                metric_list(&o.end_to_end),
                metric_list(&o.per_layer),
                notes.join(", ")
            )
        })
        .collect();
    format!(
        "{{\"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"revision\": {}, \"runs\": [{}]}}\n",
        args.seed,
        args.seconds,
        args.trace,
        sys::nproc(),
        json_str(&sys::git_revision()),
        runs.join(", ")
    )
}
