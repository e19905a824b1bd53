//! End-to-end attack benchmarks (TAB-A, FIG5–FIG12 pipeline).
//!
//! Measures the full scenario (victim run + attack) per victim model, and the
//! observe/execute split that corresponds to the paper's "while running" vs
//! "after termination" phases.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

use msa_bench::{attacker_debugger, bench_board, launch_victim, profile_zoo};
use msa_core::attack::{AttackConfig, AttackPipeline};
use msa_core::scenario::AttackScenario;
use vitis_ai_sim::ModelKind;

fn bench_full_scenario(c: &mut Criterion) {
    let board = bench_board();
    let profiles = profile_zoo(board);
    let mut group = c.benchmark_group("full_attack_scenario");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));
    group.sample_size(10);
    for model in [ModelKind::SqueezeNet, ModelKind::Resnet50Pt] {
        group.bench_function(model.name(), |b| {
            b.iter(|| {
                let outcome = AttackScenario::new(board, model)
                    .with_corrupted_input()
                    .with_profiles(profiles.clone())
                    .execute()
                    .expect("attack completes");
                black_box(outcome.pixel_recovery_rate())
            })
        });
    }
    group.finish();
}

fn bench_pipeline_phases(c: &mut Criterion) {
    let board = bench_board();
    let profiles = profile_zoo(board);
    let pipeline = AttackPipeline::new(AttackConfig::default()).with_profiles(profiles);

    let mut group = c.benchmark_group("pipeline_phases");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));
    group.sample_size(10);

    // Phase 1+2: poll and translate, against a running victim.
    group.bench_function("observe_running_victim", |b| {
        let setup = launch_victim(board, ModelKind::Resnet50Pt);
        let mut debugger = attacker_debugger();
        b.iter(|| {
            let observation = pipeline
                .poll_and_observe(&mut debugger, &setup.kernel)
                .expect("victim observed");
            black_box(observation.translation().present_pages())
        })
    });

    // Phase 3+4: scrape and analyse, against a terminated victim.
    group.bench_function("scrape_and_analyze_terminated_victim", |b| {
        let mut setup = launch_victim(board, ModelKind::Resnet50Pt);
        let mut debugger = attacker_debugger();
        let observation = pipeline
            .poll_and_observe(&mut debugger, &setup.kernel)
            .expect("victim observed");
        let pid = setup.victim.pid();
        setup.kernel.terminate(pid).expect("victim terminates");
        b.iter(|| {
            let outcome = pipeline
                .execute(&mut debugger, &mut setup.kernel, &observation)
                .expect("attack completes");
            black_box(outcome.bytes_scraped)
        })
    });

    // Victim-side cost, for scale: running the model to completion.
    group.bench_function("victim_inference_run", |b| {
        b.iter(|| {
            let mut setup = launch_victim(board, ModelKind::SqueezeNet);
            let pid = setup.victim.pid();
            setup.kernel.terminate(pid).expect("victim terminates");
            black_box(pid)
        })
    });

    group.finish();
}

criterion_group!(benches, bench_full_scenario, bench_pipeline_phases);
criterion_main!(benches);
