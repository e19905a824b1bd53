//! Smoke tests of the benchmark on a one-model slice of each workload
//! (24 cells): every metric is printed with its name and unit, the traced
//! executor reproduces the untraced stream cell for cell, and
//! `BENCHMARK.json` lists exactly the metrics the code reports.

use std::process::Command;
use std::sync::Mutex;
use std::time::Duration;

use msa_campaign_bench::metrics::{
    end_to_end, per_layer, per_layer_catalog, result_line, Metric, TracedRun, END_TO_END,
};
use msa_campaign_bench::pass::{report_cell, run_pass, Pass};
use msa_campaign_bench::trace::{traced_cell, CellTrace};
use msa_campaign_bench::workload::{Workload, DEFAULT_SEED};
use msa_core::campaign::{CampaignSpec, CellRecord};
use msa_core::StreamConfig;
use vitis_ai_sim::ModelKind;

const TIMEOUT: Duration = Duration::from_secs(600);

fn slice(workload: Workload) -> CampaignSpec {
    workload.spec_with_models(DEFAULT_SEED, vec![ModelKind::SqueezeNet])
}

fn untraced_pass(workload: Workload) -> Pass {
    let spec = slice(workload);
    run_pass(spec.cell_count(), TIMEOUT, move |tx| {
        spec.stream_cells(StreamConfig::new().with_workers(2), |record| {
            report_cell(tx, workload, &record)
        })
    })
}

/// Streams the slice through the engine's executor and the traced one,
/// returning both record sets and the traces.
fn both_executors(workload: Workload) -> (Vec<CellRecord>, Vec<CellRecord>, Vec<CellTrace>) {
    let spec = slice(workload);
    let config = StreamConfig::new().with_workers(2);
    let mut untraced = Vec::new();
    let plain = spec
        .stream_cells(config.clone(), |record| {
            untraced.push(record);
            Ok(())
        })
        .unwrap();
    let profiles = workload.profiles();
    let sink = Mutex::new(Vec::new());
    let mut traced = Vec::new();
    let summary = spec
        .stream_with_executor(
            config,
            |cell| traced_cell(cell, &profiles, &sink),
            |record| {
                traced.push(record);
                Ok(())
            },
            |_| {},
        )
        .unwrap();
    assert_eq!(summary.deterministic_json(), plain.deterministic_json());
    (untraced, traced, sink.into_inner().unwrap())
}

#[test]
fn traced_executor_matches_the_untraced_stream_and_prints_every_layer() {
    for workload in Workload::ALL {
        let (untraced, traced, traces) = both_executors(workload);
        assert_eq!(untraced.len(), 24, "{}", workload.name());
        assert_eq!(traced.len(), untraced.len());
        for (a, b) in untraced.iter().zip(&traced) {
            assert_eq!(a.deterministic_view(), b.deterministic_view());
        }
        assert_eq!(traces.len(), untraced.len());
        for trace in &traces {
            assert!(trace.cell <= trace.span);
            assert!(trace.layer_sum() <= trace.cell);
        }

        let metrics = per_layer(&TracedRun {
            traced: &[traces],
            traced_walls: &[Duration::from_secs(1)],
            untraced: &[],
            workers: 2,
            profiles: &[Duration::from_millis(5)],
        });
        assert_printed(workload, &metrics, per_layer_catalog());
    }
}

#[test]
fn untraced_pass_prints_every_end_to_end_metric() {
    for workload in Workload::ALL {
        let pass = untraced_pass(workload);
        assert_eq!(
            pass.failed_cells(),
            0,
            "{}: {:?}",
            workload.name(),
            pass.end
        );
        let setups = [Duration::from_millis(5), Duration::from_millis(6)];
        let e2e = end_to_end(workload, &[pass], &setups, 12.5);
        let expected = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect();
        assert_printed(workload, &e2e.gated, expected);
    }
}

/// Asserts that the result line of `metrics` carries exactly `expected`
/// names with their units, in order.
fn assert_printed(workload: Workload, metrics: &[Metric], expected: Vec<(String, &str)>) {
    let line = result_line(true, 24, 0, metrics);
    for (name, unit) in &expected {
        let entry = format!("\"{name}\": {{\"value\": ");
        assert!(line.contains(&entry), "{} lacks {name}", workload.name());
        assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
    }
    let printed: Vec<(String, &str)> = metrics.iter().map(|m| (m.name.clone(), m.unit)).collect();
    assert_eq!(printed, expected, "{}", workload.name());
}

#[test]
fn benchmark_json_lists_the_reported_metrics_and_workloads() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).unwrap();
    let listed = json.matches("\"unit\":").count();
    assert_eq!(listed, END_TO_END.len() + per_layer_catalog().len());
    let entries = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .chain(per_layer_catalog());
    for (name, unit) in entries {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\",");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for workload in Workload::ALL {
        assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\": ", workload.name())));
    }
}

#[test]
fn bad_arguments_exit_without_a_result() {
    for args in [
        &["--workload", "no-such-workload"][..],
        &["--workload", "tiny-sweep", "--trace", "2"],
        &["--seed", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_campaign-bench"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty());
    }
}
