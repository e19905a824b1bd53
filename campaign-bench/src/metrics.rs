//! The benchmark's metrics: end-to-end figures from untraced passes,
//! per-layer figures from traced ones, and the result line.

use std::time::Duration;

use crate::pass::{CellSample, Pass};
use crate::stats::{median, median_secs, quantile};
use crate::trace::{AnalysisPass, CellCounters, CellTrace};
use crate::workload::{CellClass, Workload};

/// One measured figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name in `BENCHMARK.json`.
    pub name: String,
    /// Its value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How many samples it was computed from.
    pub samples: usize,
}

impl Metric {
    fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name: name.into(),
            // An empty float sum is -0.0; report it as plain 0.
            value: value + 0.0,
            unit,
            samples,
        }
    }
}

/// The end-to-end metrics `BENCHMARK.json` gates, with their units.  Each is
/// defined on every workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("cells_per_s", "1/s"),
    ("cell_ms_p50", "ms"),
    ("cell_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Everything an untraced run measures.  `gated` holds the
/// [`END_TO_END`] metrics; `detail` the per-class figures, which exist only
/// on the workloads that have cells of that class.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// The [`END_TO_END`] metrics, in order (missing ones had no samples).
    pub gated: Vec<Metric>,
    /// Per-class latencies and the failure fraction, for the report.
    pub detail: Vec<Metric>,
}

/// Computes the end-to-end metrics of an untraced run.
pub fn end_to_end(
    workload: Workload,
    passes: &[Pass],
    setups: &[Duration],
    peak_rss_mib: f64,
) -> EndToEnd {
    let samples: Vec<&CellSample> = passes.iter().flat_map(|p| &p.samples).collect();
    let elapsed_ms = |class: CellClass| {
        move |s: &CellSample| (s.class() == class).then_some(s.elapsed.as_secs_f64() * 1e3)
    };

    // Throughput per pass, then the median pass: one pass slowed by a
    // neighbour on the host does not move it.
    let rates: Vec<f64> = passes
        .iter()
        .filter(|p| !p.wall.is_zero() && !p.samples.is_empty())
        .map(|p| p.samples.len() as f64 / p.wall.as_secs_f64())
        .collect();
    let mut gated = Vec::new();
    if let Some(rate) = median(&rates) {
        gated.push(Metric::new("cells_per_s", rate, "1/s", samples.len()));
    }
    gated.extend(percentiles(
        "cell_ms",
        passes,
        elapsed_ms(workload.primary_class()),
    ));
    if let Some(setup) = median_secs(setups) {
        gated.push(Metric::new("setup_s", setup, "s", setups.len()));
    }
    gated.push(Metric::new("peak_rss_mib", peak_rss_mib, "MiB", 1));

    let mut detail = Vec::new();
    detail.extend(percentiles(
        "completed_cell_ms",
        passes,
        elapsed_ms(CellClass::Completed),
    ));
    detail.extend(percentiles(
        "blocked_cell_ms",
        passes,
        elapsed_ms(CellClass::Blocked),
    ));
    detail.extend(percentiles("attack_ms", passes, |s| {
        s.attack.map(|d| d.as_secs_f64() * 1e3)
    }));
    let attempted: usize = passes.iter().map(|p| p.cells_total).sum();
    let failed: usize = passes.iter().map(Pass::failed_cells).sum();
    if attempted > 0 {
        detail.push(Metric::new(
            "cells_failed_frac",
            failed as f64 / attempted as f64,
            "frac",
            attempted,
        ));
    }
    EndToEnd { gated, detail }
}

/// `{stem}_p50` and `{stem}_p90` of a per-cell figure (`value`, `None` when
/// it does not apply to the cell), or nothing without samples.
///
/// Every pass runs the same cells, so each cell is first reduced to its
/// median over the run's passes, and the percentiles are taken over cells.
/// A burst that slows one pass then moves a cell's figure only if it hits
/// most of that cell's passes.  The sample count is every per-pass value.
fn percentiles(
    stem: &str,
    passes: &[Pass],
    value: impl Fn(&CellSample) -> Option<f64>,
) -> Vec<Metric> {
    // The visitor sees cells in index order, so `samples[i]` is cell `i`.
    let cells = passes.iter().map(|p| p.samples.len()).max().unwrap_or(0);
    let mut samples = 0;
    let per_cell: Vec<f64> = (0..cells)
        .filter_map(|i| {
            let values: Vec<f64> = passes
                .iter()
                .filter_map(|p| p.samples.get(i))
                .filter_map(&value)
                .collect();
            samples += values.len();
            median(&values)
        })
        .collect();
    [("p50", 0.5), ("p90", 0.9)]
        .into_iter()
        .filter_map(|(tag, q)| {
            quantile(&per_cell, q).map(|v| Metric::new(format!("{stem}_{tag}"), v, "ms", samples))
        })
        .collect()
}

/// The summed deterministic counters of one traced pass, in cell order.
pub fn pass_counters(traces: &[CellTrace]) -> CellCounters {
    let mut ordered: Vec<&CellTrace> = traces.iter().collect();
    ordered.sort_by_key(|t| t.index);
    ordered
        .iter()
        .filter_map(|t| t.counters)
        .fold(CellCounters::default(), |sum, c| CellCounters {
            bytes_written: sum.bytes_written + c.bytes_written,
            write_ops: sum.write_ops + c.write_ops,
            bytes_scrubbed: sum.bytes_scrubbed + c.bytes_scrubbed,
            scrub_ops: sum.scrub_ops + c.scrub_ops,
            sanitize_cycles: sum.sanitize_cycles + c.sanitize_cycles,
            scrape_bytes: sum.scrape_bytes + c.scrape_bytes,
        })
}

/// Per-pass analysed bytes of each analysis pass, in cell order.
fn pass_analysis_bytes(traces: &[CellTrace], pass: AnalysisPass) -> u64 {
    traces
        .iter()
        .flat_map(|t| &t.passes)
        .filter(|p| p.pass == pass)
        .map(|p| p.bytes)
        .sum()
}

/// The names and units of every per-layer metric, in report order.
pub fn per_layer_catalog() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("campaign.worker_busy_frac", "frac"),
        ("campaign.cells_per_s_untraced", "1/s"),
        ("campaign.cells_per_s_traced", "1/s"),
        ("trace.overhead_frac", "frac"),
        ("trace.self_gap_frac", "frac"),
        ("trace.analysis_split_frac", "frac"),
        ("trace.cells", "count"),
        ("trace.completed_cells", "count"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for (layer, _) in TIMED_LAYERS {
        names.push((format!("{layer}_us"), "us"));
        names.push((format!("{layer}_share"), "frac"));
    }
    names.extend([
        ("attack.scrape_bytes".to_string(), "bytes"),
        ("attack.scrape_mib_s".to_string(), "MiB/s"),
        ("attack.analyze_mib_s".to_string(), "MiB/s"),
    ]);
    for pass in AnalysisPass::ALL {
        let stem = pass.name();
        names.push((format!("analysis.{stem}_us"), "us"));
        names.push((format!("analysis.{stem}_share"), "frac"));
        names.push((format!("analysis.{stem}_bytes"), "bytes"));
    }
    names.extend(
        [
            ("dram.bytes_written", "bytes"),
            ("dram.write_ops", "count"),
            ("dram.bytes_scrubbed", "bytes"),
            ("dram.scrub_ops", "count"),
            ("sanitize.cost_cycles", "cycles"),
            ("setup.profile_ms", "ms"),
        ]
        .into_iter()
        .map(|(n, u)| (n.to_string(), u)),
    );
    names
}

/// The layers timed per cell: metric-name stem and the cell's time in the
/// layer, when the layer ran.
type LayerTime = fn(&CellTrace) -> Option<Duration>;
const TIMED_LAYERS: [(&str, LayerTime); 8] = [
    ("scenario.build", |t| Some(t.build)),
    ("petalinux.boot", |t| Some(t.boot)),
    ("vitis.launch", |t| t.launch),
    ("attack.poll", |t| t.steps.map(|s| s.poll)),
    ("attack.translate", |t| t.steps.map(|s| s.translate)),
    ("attack.scrape", |t| t.steps.map(|s| s.scrape)),
    ("attack.analyze", |t| t.steps.map(|s| s.analyze)),
    ("attack.run_self", CellTrace::run_self),
];

/// What a traced run measured, beyond the traces themselves.
#[derive(Debug, Clone)]
pub struct TracedRun<'a> {
    /// Cell traces of each traced pass (the first supplies the counters).
    pub traced: &'a [Vec<CellTrace>],
    /// Wall clock of each traced pass.
    pub traced_walls: &'a [Duration],
    /// The untraced passes of the same run and seed.
    pub untraced: &'a [Pass],
    /// Campaign workers per pass.
    pub workers: usize,
    /// Each timed `Profiler::profile_all` over the workload's boards.
    pub profiles: &'a [Duration],
}

/// Computes every per-layer metric, in [`per_layer_catalog`] order.  A layer
/// that did no work on the workload (no samples) reports 0.
pub fn per_layer(run: &TracedRun<'_>) -> Vec<Metric> {
    let traces: Vec<&CellTrace> = run.traced.iter().flatten().collect();
    let n = traces.len();
    let secs = |d: Duration| d.as_secs_f64();
    let summed_cells: f64 = traces.iter().map(|t| secs(t.cell)).sum();
    let share = |total: f64| ratio(total, summed_cells);
    let traced_wall: f64 = run.traced_walls.iter().map(|d| secs(*d)).sum();
    let untraced_wall: f64 = run.untraced.iter().map(|p| secs(p.wall)).sum();
    let untraced_cells: usize = run.untraced.iter().map(|p| p.samples.len()).sum();
    let traced_cps = ratio(n as f64, traced_wall);
    let untraced_cps = ratio(untraced_cells as f64, untraced_wall);
    let spans: f64 = traces.iter().map(|t| secs(t.span)).sum();
    let layer_sum: f64 = traces.iter().map(|t| secs(t.layer_sum())).sum();
    let analyze_total: f64 = traces
        .iter()
        .filter_map(|t| t.steps)
        .map(|s| secs(s.analyze))
        .sum();
    let passes_total: f64 = traces
        .iter()
        .flat_map(|t| &t.passes)
        .map(|p| secs(p.time))
        .sum();
    let completed = traces.iter().filter(|t| t.steps.is_some()).count();

    let mut out = vec![
        Metric::new(
            "campaign.worker_busy_frac",
            ratio(spans, traced_wall * run.workers as f64),
            "frac",
            n,
        ),
        Metric::new(
            "campaign.cells_per_s_untraced",
            untraced_cps,
            "1/s",
            untraced_cells,
        ),
        Metric::new("campaign.cells_per_s_traced", traced_cps, "1/s", n),
        Metric::new(
            "trace.overhead_frac",
            1.0 - ratio(traced_cps, untraced_cps),
            "frac",
            n,
        ),
        Metric::new(
            "trace.self_gap_frac",
            ratio(summed_cells - layer_sum, summed_cells),
            "frac",
            n,
        ),
        Metric::new(
            "trace.analysis_split_frac",
            ratio(passes_total, analyze_total),
            "frac",
            completed,
        ),
        Metric::new("trace.cells", n as f64, "count", n),
        Metric::new("trace.completed_cells", completed as f64, "count", n),
    ];
    for (layer, time) in TIMED_LAYERS {
        let times: Vec<f64> = traces.iter().filter_map(|t| time(t)).map(secs).collect();
        out.extend(timing(layer, &times, share(times.iter().sum())));
    }

    let first = run.traced.first().map(Vec::as_slice).unwrap_or_default();
    let counters = pass_counters(first);
    let scrape_time: f64 = traces
        .iter()
        .filter_map(|t| t.steps)
        .map(|s| secs(s.scrape))
        .sum();
    let scraped: f64 = traces
        .iter()
        .filter_map(|t| t.counters)
        .map(|c| c.scrape_bytes as f64)
        .sum();
    let mib = 1024.0 * 1024.0;
    out.extend([
        Metric::new(
            "attack.scrape_bytes",
            counters.scrape_bytes as f64,
            "bytes",
            first.len(),
        ),
        Metric::new(
            "attack.scrape_mib_s",
            ratio(scraped / mib, scrape_time),
            "MiB/s",
            completed,
        ),
        Metric::new(
            "attack.analyze_mib_s",
            ratio(scraped / mib, analyze_total),
            "MiB/s",
            completed,
        ),
    ]);
    for pass in AnalysisPass::ALL {
        let times: Vec<f64> = traces
            .iter()
            .flat_map(|t| &t.passes)
            .filter(|p| p.pass == pass)
            .map(|p| secs(p.time))
            .collect();
        let stem = format!("analysis.{}", pass.name());
        out.extend(timing(&stem, &times, share(times.iter().sum())));
        out.push(Metric::new(
            format!("{stem}_bytes"),
            pass_analysis_bytes(first, pass) as f64,
            "bytes",
            first.len(),
        ));
    }
    let m = first.len();
    out.extend([
        Metric::new(
            "dram.bytes_written",
            counters.bytes_written as f64,
            "bytes",
            m,
        ),
        Metric::new("dram.write_ops", counters.write_ops as f64, "count", m),
        Metric::new(
            "dram.bytes_scrubbed",
            counters.bytes_scrubbed as f64,
            "bytes",
            m,
        ),
        Metric::new("dram.scrub_ops", counters.scrub_ops as f64, "count", m),
        Metric::new(
            "sanitize.cost_cycles",
            counters.sanitize_cycles,
            "cycles",
            m,
        ),
        Metric::new(
            "setup.profile_ms",
            median_secs(run.profiles).unwrap_or(0.0) * 1e3,
            "ms",
            run.profiles.len(),
        ),
    ]);
    out
}

/// `{stem}_us` (per-cell median) and `{stem}_share` (share of summed cell
/// time) of a layer's per-cell times in seconds; 0 without samples.
fn timing(stem: &str, times: &[f64], share: f64) -> [Metric; 2] {
    [
        Metric::new(
            format!("{stem}_us"),
            median(times).unwrap_or(0.0) * 1e6,
            "us",
            times.len(),
        ),
        Metric::new(format!("{stem}_share"), share, "frac", times.len()),
    ]
}

/// `num / den`, or 0 when the denominator is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and the metrics as `{"value", "unit"}` objects.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite `f64` in full precision; JSON has no NaN or infinity, so those
/// become `null`.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// One human-readable report line: name, value, unit and sample count.
pub fn report_line(metric: &Metric) -> String {
    format!(
        "{:<32} {:>16.6} {:<6} n={}",
        metric.name, metric.value, metric.unit, metric.samples
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(
            true,
            3,
            0,
            &[
                Metric::new("a", 1.5, "ms", 3),
                Metric::new("b", f64::NAN, "s", 1),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": null, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn per_layer_on_no_traces_reports_every_catalog_metric() {
        let run = TracedRun {
            traced: &[],
            traced_walls: &[],
            untraced: &[],
            workers: 2,
            profiles: &[],
        };
        let names: Vec<(String, &str)> = per_layer(&run)
            .into_iter()
            .map(|m| (m.name, m.unit))
            .collect();
        assert_eq!(names, per_layer_catalog());
    }
}
