//! Integration tests: offline profiling transfers to the victim board.
//!
//! The attack's key enabler (paper §VI, third finding) is that PetaLinux's
//! deterministic layout lets offsets learned on the attacker's own board be
//! replayed against the victim.  These tests verify the transfer property and
//! its limits.

use fpga_msa::debugger::DebugSession;
use fpga_msa::msa::attack::{AttackConfig, AttackPipeline};
use fpga_msa::msa::profile::{ProfileDatabase, Profiler};
use fpga_msa::msa::scenario::AttackScenario;
use fpga_msa::petalinux::{BoardConfig, Kernel, UserId};
use fpga_msa::vitis::runner::heap_image;
use fpga_msa::vitis::{DpuRunner, Image, ModelKind};

#[test]
fn profiles_match_the_runtime_layout_for_every_model() {
    let profiler = Profiler::new(BoardConfig::tiny_for_tests());
    for model in ModelKind::all() {
        let profile = profiler.profile_model(model).unwrap();
        let (w, h) = model.input_dims();
        let (_, layout) = heap_image(model, &Image::profiling_sentinel(w, h));
        assert_eq!(profile.image_offset, layout.image_offset, "{model}");
        assert_eq!(profile.heap_len, layout.heap_len, "{model}");
    }
}

#[test]
fn profile_learned_on_a_separate_board_instance_transfers_to_the_victim() {
    // Profile on one kernel instance...
    let profiles = Profiler::new(BoardConfig::tiny_for_tests()).profile_all();

    // ...and attack a victim on a *different* kernel instance that has also
    // run other workloads first.  The prior workload fragments the physical
    // frame pool (freed frames are reused in LIFO order), so the attacker
    // uses the per-page scraping strategy; the *heap-relative* offsets from
    // the profile still transfer because the virtual layout is unchanged.
    let board = BoardConfig::tiny_for_tests();
    let mut kernel = Kernel::boot(board);
    let warmup = DpuRunner::new(ModelKind::SqueezeNet)
        .run_to_completion(&mut kernel, UserId::new(0))
        .unwrap();
    assert!(kernel.process(warmup.pid()).is_ok());

    let pipeline = AttackPipeline::new(AttackConfig {
        victim_pattern: Some("resnet50_pt".to_string()),
        scrape_mode: fpga_msa::msa::attack::ScrapeMode::PerPage,
        ..AttackConfig::default()
    })
    .with_profiles(profiles);

    let input = Image::sample_photo(224, 224);
    let victim = DpuRunner::new(ModelKind::Resnet50Pt)
        .with_input(input.clone())
        .launch(&mut kernel, UserId::new(0))
        .unwrap();
    let mut debugger = DebugSession::connect(UserId::new(1));
    let observation = pipeline.poll_and_observe(&mut debugger, &kernel).unwrap();
    victim.terminate(&mut kernel).unwrap();
    let outcome = pipeline
        .execute(&mut debugger, &mut kernel, &observation)
        .unwrap();

    assert_eq!(outcome.identified_model(), Some(ModelKind::Resnet50Pt));
    assert_eq!(outcome.image_recovery_rate(&input), 1.0);
}

#[test]
fn profiles_are_model_specific_and_wrong_profiles_hurt_reconstruction() {
    let board = BoardConfig::tiny_for_tests();
    let profiler = Profiler::new(board);
    let resnet = profiler.profile_model(ModelKind::Resnet50Pt).unwrap();
    let squeeze = profiler.profile_model(ModelKind::SqueezeNet).unwrap();
    assert_ne!(resnet.image_offset, squeeze.image_offset);

    // Build a database that deliberately stores squeezenet's offset under
    // resnet50's key: reconstruction then misses the image.
    let mut wrong = ProfileDatabase::new();
    wrong.insert(fpga_msa::msa::profile::ModelProfile {
        model: ModelKind::Resnet50Pt,
        image_offset: squeeze.image_offset,
        weights_offset: None,
        heap_len: resnet.heap_len,
    });
    let outcome = AttackScenario::new(board, ModelKind::Resnet50Pt)
        .with_profiles(wrong)
        .execute()
        .unwrap();
    // Model identification still works (strings), but the image does not
    // reconstruct from the wrong offset.
    assert!(outcome.model_identification_correct());
    assert!(outcome.pixel_recovery_rate() < 0.5);
}

#[test]
fn without_profiles_only_marker_images_can_be_reconstructed() {
    let board = BoardConfig::tiny_for_tests();

    // Marker (corrupted) input: the fallback finds it without any profile.
    let corrupted = AttackScenario::new(board, ModelKind::Resnet50Pt)
        .with_corrupted_input()
        .with_offline_profiling(false)
        .execute()
        .unwrap();
    assert!(corrupted.pixel_recovery_rate() > 0.99);

    // Natural photo input: no profile, no marker, no reconstruction — but the
    // model is still identified from strings.
    let photo = AttackScenario::new(board, ModelKind::Resnet50Pt)
        .with_offline_profiling(false)
        .execute()
        .unwrap();
    assert!(photo.model_identification_correct());
    assert!(!photo.attack().has_reconstructed_image());
    assert_eq!(photo.pixel_recovery_rate(), 0.0);
}
