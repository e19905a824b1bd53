//! `campaign-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Streams one workload's matrix in repeated 192-cell passes for about
//! `--seconds` seconds, checks every pass, prints a human-readable report and
//! ends with one JSON result line.  `--trace 0` reports the end-to-end
//! metrics; `--trace 1` runs untraced and traced passes on the same seed and
//! reports the per-layer split.  Exits 0 only when every check passed.

use std::process::ExitCode;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use msa_campaign_bench::metrics::{
    end_to_end, pass_counters, per_layer, report_line, result_line, Metric, TracedRun,
};
use msa_campaign_bench::pass::{report_cell, run_pass, Pass};
use msa_campaign_bench::stats::peak_rss_mib;
use msa_campaign_bench::trace::{traced_cell, CellTrace};
use msa_campaign_bench::workload::{fnv1a, Workload, CELLS_PER_PASS, DEFAULT_SEED};
use msa_core::StreamConfig;

const USAGE: &str =
    "usage: campaign-bench --workload <tiny-sweep|decay-swap|confined-fleet> [--seed N] [--seconds S] [--trace 0|1]";

/// Every run ends within this much wall clock, hung stream or not.
const RUN_LIMIT: Duration = Duration::from_secs(150);

/// Campaign workers per pass.  One worker keeps the second vCPU of a
/// 2-vCPU host free for the stream's collector thread: with two workers,
/// the second worker's speed follows the host's load on that vCPU, and the
/// run-to-run spread of `decay-swap` rose from 2–4% to 7–10%.
const WORKERS: usize = 1;

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;

/// Command-line options.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = 10;
        let mut trace = false;
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("{flag} {value}: {e}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    );
                }
                "--seed" => seed = number()?,
                "--seconds" => seconds = number()?.max(1),
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("campaign-bench: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args, started + RUN_LIMIT) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(error) => {
            eprintln!("campaign-bench: {error}");
            ExitCode::FAILURE
        }
    }
    // Returning from `main` ends the process, and with it any stream thread
    // a timed-out pass left behind.
}

/// Accumulates the checks of a run: attempted and failed cells plus the
/// reasons for any failure.
#[derive(Default)]
struct Verdict {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
}

impl Verdict {
    /// Counts `pass`, checking its cells and its summary against `expected`
    /// (the run's first summary, or the pinned one).  A pass whose summary
    /// is wrong counts all its cells as failed.
    fn check_pass(&mut self, label: &str, pass: &Pass, expected: Option<&str>, pin: Option<u64>) {
        self.attempted += pass.cells_total;
        let Some(summary) = pass.summary() else {
            self.failed += pass.failed_cells();
            self.problems.push(format!("{label}: {:?}", pass.end));
            return;
        };
        let hash = fnv1a(summary.as_bytes());
        println!(
            "# {label}: {} cells in {:.3} s, summary {hash:016x}",
            pass.samples.len(),
            pass.wall.as_secs_f64()
        );
        if expected.is_some_and(|e| e != summary) {
            self.failed += pass.cells_total;
            self.problems
                .push(format!("{label}: summary differs from the run's first"));
        } else if pin.is_some_and(|p| p != hash) {
            self.failed += pass.cells_total;
            self.problems.push(format!(
                "{label}: summary {hash:016x} differs from the pinned one"
            ));
        } else {
            let failed = pass.failed_cells();
            if failed > 0 {
                self.problems.push(format!(
                    "{label}: {failed} cells broke the workload's check"
                ));
            }
            self.failed += failed;
        }
    }

    /// Records a problem that is not tied to particular cells.
    fn problem(&mut self, problem: String) {
        self.problems.push(problem);
    }

    fn ok(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

fn run(args: &Args, run_limit: Instant) -> Result<bool, String> {
    let workload = args.workload;
    println!(
        "# campaign-bench workload={} seed={} seconds={} trace={} workers={WORKERS}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    // Set-up: what a stream does before its first cell — build the spec and
    // profile the board — repeated so its median is steady.
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut profiling = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        let setup = Instant::now();
        let spec = std::hint::black_box(workload.spec(args.seed));
        let profile = Instant::now();
        std::hint::black_box(workload.profiles());
        profiling.push(profile.elapsed());
        setups.push(setup.elapsed());
        drop(spec);
    }

    let pin = (args.seed == DEFAULT_SEED).then(|| workload.pinned_summary_hash());
    let mut verdict = Verdict::default();
    let measure = Duration::from_secs(args.seconds);
    let untraced_for = if args.trace { measure / 2 } else { measure };
    let untraced = untraced_passes(args, untraced_for, run_limit);
    let first = untraced.first().and_then(Pass::summary).map(str::to_string);
    for (i, pass) in untraced.iter().enumerate() {
        verdict.check_pass(&format!("pass {i}"), pass, first.as_deref(), pin);
    }

    let metrics = if args.trace {
        // A failed untraced phase already fails the run; trace nothing then.
        let (traced, traces) = if verdict.ok() {
            traced_passes(args, measure / 2, run_limit)
        } else {
            (Vec::new(), Vec::new())
        };
        for (i, pass) in traced.iter().enumerate() {
            verdict.check_pass(&format!("traced pass {i}"), pass, first.as_deref(), pin);
        }
        let counters: Vec<_> = traces.iter().map(|t| pass_counters(t)).collect();
        if counters.windows(2).any(|w| w.first() != w.last()) {
            verdict.problem("work counters differ between traced passes".into());
        }
        let walls: Vec<Duration> = traced.iter().map(|p| p.wall).collect();
        let metrics = per_layer(&TracedRun {
            traced: &traces,
            traced_walls: &walls,
            untraced: &untraced,
            workers: WORKERS,
            profiles: &profiling,
        });
        report_overhead(&metrics);
        metrics
    } else {
        let e2e = end_to_end(workload, &untraced, &setups, peak_rss_mib()?);
        for metric in &e2e.detail {
            println!("{}", report_line(metric));
        }
        e2e.gated
    };
    for metric in &metrics {
        println!("{}", report_line(metric));
    }
    for problem in &verdict.problems {
        println!("# FAILED: {problem}");
    }
    println!(
        "{}",
        result_line(verdict.ok(), verdict.attempted, verdict.failed, &metrics)
    );
    Ok(verdict.ok())
}

/// Calls `pass` until `measure` has gone by (at least once), stopping early
/// after a pass that did not finish.
fn repeat(measure: Duration, mut pass: impl FnMut() -> Pass) -> Vec<Pass> {
    let end = Instant::now() + measure;
    let mut passes = Vec::new();
    loop {
        let next = pass();
        let finished = next.summary().is_some();
        passes.push(next);
        if !finished || Instant::now() >= end {
            return passes;
        }
    }
}

/// Untraced passes through `CampaignSpec::stream_cells`.
fn untraced_passes(args: &Args, measure: Duration, limit: Instant) -> Vec<Pass> {
    let (workload, seed) = (args.workload, args.seed);
    repeat(measure, || {
        run_pass(
            CELLS_PER_PASS,
            limit.saturating_duration_since(Instant::now()),
            move |tx| {
                workload
                    .spec(seed)
                    .stream_cells(StreamConfig::new().with_workers(WORKERS), |record| {
                        report_cell(tx, workload, &record)
                    })
            },
        )
    })
}

/// Traced passes through `CampaignSpec::stream_with_executor` with the
/// benchmark's traced executor, and each pass's cell traces.  Like the
/// engine, each pass profiles the board before its first cell.
fn traced_passes(
    args: &Args,
    measure: Duration,
    limit: Instant,
) -> (Vec<Pass>, Vec<Vec<CellTrace>>) {
    let (workload, seed) = (args.workload, args.seed);
    let mut traces = Vec::new();
    let passes = repeat(measure, || {
        let sink = Arc::new(Mutex::new(Vec::with_capacity(CELLS_PER_PASS)));
        let stream_sink = Arc::clone(&sink);
        let pass = run_pass(
            CELLS_PER_PASS,
            limit.saturating_duration_since(Instant::now()),
            move |tx| {
                let profiles = workload.profiles();
                workload.spec(seed).stream_with_executor(
                    StreamConfig::new().with_workers(WORKERS),
                    |cell| traced_cell(cell, &profiles, &stream_sink),
                    |record| report_cell(tx, workload, &record),
                    |_| {},
                )
            },
        );
        // A push either happened or not, so a sink poisoned by a panicking
        // worker still holds whole traces.
        let mut sink = sink.lock().unwrap_or_else(PoisonError::into_inner);
        traces.push(std::mem::take(&mut *sink));
        pass
    });
    (passes, traces)
}

/// Prints whether the per-layer self times add up to the summed cell time
/// within the tracing overhead.
fn report_overhead(metrics: &[Metric]) {
    let value = |name: &str| metrics.iter().find(|m| m.name == name).map(|m| m.value);
    if let (Some(gap), Some(overhead)) =
        (value("trace.self_gap_frac"), value("trace.overhead_frac"))
    {
        let within = gap.abs() <= overhead.abs();
        println!(
            "# layer self times vs summed cell time: gap {:.4}%, tracing overhead {:.4}% ({})",
            gap * 100.0,
            overhead * 100.0,
            if within { "within" } else { "NOT within" }
        );
    }
}
