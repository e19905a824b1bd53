//! Step-4 benchmarks (FIG11/FIG12): model identification from strings,
//! marker scanning, hexdump rendering/grep and image reconstruction, plus
//! the decay-tolerant recoverers (neighbor repair and fuzzy identification)
//! on residue decayed by the remanence models.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::time::Duration;

use msa_bench::{attacker_debugger, bench_board, launch_victim};
use msa_core::analysis::image::reconstruct_image_view;
use msa_core::analysis::marker::{marker_runs_view, CORRUPTED_MARKER};
use msa_core::analysis::reconstruct::{fuzzy_identify_view, repair_image};
use msa_core::analysis::strings::identify_model_view;
use msa_core::attack::ScrapeMode;
use msa_core::dump::MemoryDump;
use msa_core::profile::Profiler;
use msa_core::scrape::scrape_heap;
use msa_core::signature::SignatureDb;
use msa_core::translate::capture_heap_translation;
use vitis_ai_sim::{Image, ModelKind};
use zynq_dram::remanence::cell_hash;
use zynq_dram::{RemanenceModel, ScrapeView};

fn scraped_dump(model: ModelKind) -> MemoryDump {
    let mut setup = launch_victim(bench_board(), model);
    let mut debugger = attacker_debugger();
    let translation = capture_heap_translation(&mut debugger, &setup.kernel, setup.victim.pid())
        .expect("translation captured");
    let pid = setup.victim.pid();
    setup.kernel.terminate(pid).expect("victim terminates");
    scrape_heap(
        &mut debugger,
        &setup.kernel,
        &translation,
        ScrapeMode::ContiguousRange,
    )
    .expect("scrape succeeds")
}

/// `bytes` after two ticks of per-bit discharge and then two ticks of
/// whole-byte decay, at the rates of the campaign benchmark's `decay-swap`
/// workload: both clipped and erased bytes.  The decayed resnet50 heap
/// still identifies fuzzily, at a distance of about 0.4.
fn decayed(bytes: &[u8]) -> Vec<u8> {
    let clip = RemanenceModel::BitFlip { rate_ppm: 120_000 }.curve(2);
    let erase = RemanenceModel::Exponential { half_life_ticks: 4 }.curve(2);
    (0u64..)
        .zip(bytes)
        .map(|(i, &byte)| {
            let clipped = clip.apply(byte, cell_hash(1, 0, i));
            erase.apply(clipped, cell_hash(2, 0, i))
        })
        .collect()
}

fn decayed_image(side: u32) -> Image {
    Image::from_raw(side, side, decayed(Image::corrupted(side, side).as_bytes()))
}

fn bench_analysis(c: &mut Criterion) {
    let dump = scraped_dump(ModelKind::Resnet50Pt);
    let db = SignatureDb::standard();
    let profile = Profiler::new(bench_board())
        .profile_model(ModelKind::Resnet50Pt)
        .expect("profiling succeeds");

    let mut group = c.benchmark_group("analysis");
    group.sample_size(20);
    group.throughput(Throughput::Bytes(dump.len() as u64));

    group.bench_function("identify_model_from_strings", |b| {
        b.iter(|| black_box(identify_model_view(&dump.as_view(), &db)))
    });

    group.bench_function("marker_run_scan", |b| {
        b.iter(|| black_box(marker_runs_view(&dump.as_view(), CORRUPTED_MARKER, 256).len()))
    });

    group.bench_function("hexdump_render", |b| {
        b.iter(|| black_box(dump.to_hexdump().render().len()))
    });

    group.bench_function("hexdump_grep_resnet50", |b| {
        let hexdump = dump.to_hexdump();
        b.iter(|| black_box(hexdump.grep("resnet50").len()))
    });

    group.bench_function("image_reconstruction_at_profiled_offset", |b| {
        b.iter(|| {
            black_box(reconstruct_image_view(
                &dump.as_view(),
                ModelKind::Resnet50Pt,
                profile.image_offset,
            ))
        })
    });

    group.bench_function("ascii_string_extraction", |b| {
        b.iter(|| black_box(dump.ascii_strings(6).len()))
    });

    let decayed_dump = decayed(dump.as_bytes());
    group.bench_function("fuzzy_identify_decayed", |b| {
        b.iter(|| {
            black_box(fuzzy_identify_view(
                &ScrapeView::from_slice(&decayed_dump),
                &db,
            ))
        })
    });

    for side in [224, 416] {
        let image = decayed_image(side);
        group.throughput(Throughput::Bytes(image.as_bytes().len() as u64));
        group.bench_function(format!("repair_image_{side}_decayed"), |b| {
            b.iter(|| black_box(repair_image(&image)))
        });
    }
    group.finish();
}

fn bench_offline_profiling(c: &mut Criterion) {
    let mut group = c.benchmark_group("offline_profiling");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));
    group.sample_size(10);
    let profiler = Profiler::new(bench_board());
    for model in [ModelKind::SqueezeNet, ModelKind::Resnet50Pt] {
        group.bench_function(model.name(), |b| {
            b.iter(|| black_box(profiler.profile_model(model).expect("profiling succeeds")))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_analysis, bench_offline_profiling);
criterion_main!(benches);
