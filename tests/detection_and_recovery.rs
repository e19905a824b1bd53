//! Integration tests: the defender-side detector and the string-free
//! weight-fingerprint identification, exercised over real attack sessions.

use fpga_msa::debugger::DebugSession;
use fpga_msa::msa::analysis::weights::{identify_model_by_weights, match_weights_view};
use fpga_msa::msa::attack::{AttackConfig, AttackPipeline};
use fpga_msa::msa::detect::{DetectorConfig, ScrapingDetector, Severity};
use fpga_msa::petalinux::{BoardConfig, IsolationPolicy, Kernel, UserId};
use fpga_msa::vitis::{DpuRunner, Image, ModelKind};

#[test]
fn detector_flags_the_attack_and_ignores_the_victim_itself() {
    let mut kernel = Kernel::boot(BoardConfig::tiny_for_tests());
    let victim = DpuRunner::new(ModelKind::Resnet50Pt)
        .with_input(Image::corrupted(224, 224))
        .launch(&mut kernel, UserId::new(0))
        .unwrap();
    let victim_pid = victim.pid();

    // The victim's own (benign) debugger activity.
    let mut own_debugger = DebugSession::connect(UserId::new(0));
    own_debugger.read_maps(&kernel, victim_pid).unwrap();

    // The attacker's session.
    let pipeline = AttackPipeline::new(AttackConfig::default());
    let mut attacker = DebugSession::connect(UserId::new(1));
    let observation = pipeline.poll_and_observe(&mut attacker, &kernel).unwrap();
    victim.terminate(&mut kernel).unwrap();
    pipeline
        .execute(&mut attacker, &mut kernel, &observation)
        .unwrap();

    let detector = ScrapingDetector::new(DetectorConfig::default());
    let attacker_finding = detector
        .inspect(&kernel, attacker.user(), attacker.audit())
        .expect("attack session flagged");
    assert_eq!(attacker_finding.severity, Severity::Critical);
    assert_eq!(attacker_finding.target, Some(victim_pid));

    assert!(
        detector
            .inspect(&kernel, own_debugger.user(), own_debugger.audit())
            .is_none(),
        "the victim's own debugging must not be flagged"
    );
}

#[test]
fn confined_boards_leave_only_denied_operations_in_the_audit_log() {
    let mut kernel =
        Kernel::boot(BoardConfig::tiny_for_tests().with_isolation(IsolationPolicy::Confined));
    let victim = DpuRunner::new(ModelKind::SqueezeNet)
        .launch(&mut kernel, UserId::new(0))
        .unwrap();
    let pipeline = AttackPipeline::new(AttackConfig::default());
    let mut attacker = DebugSession::connect(UserId::new(1));
    assert!(pipeline.poll_and_observe(&mut attacker, &kernel).is_err());
    drop(victim);

    assert!(attacker.audit().denied_count() > 0);
    assert_eq!(attacker.audit().physical_bytes_read(), 0);
}

#[test]
fn weight_fingerprinting_agrees_with_string_identification_on_real_dumps() {
    let board = BoardConfig::tiny_for_tests();
    for model in [ModelKind::Resnet50Pt, ModelKind::YoloV3, ModelKind::Vgg16] {
        let pipeline = AttackPipeline::new(AttackConfig::default());
        let mut kernel = Kernel::boot(board);
        let victim = DpuRunner::new(model)
            .launch(&mut kernel, UserId::new(0))
            .unwrap();
        let mut debugger = DebugSession::connect(UserId::new(1));
        let observation = pipeline.poll_and_observe(&mut debugger, &kernel).unwrap();
        victim.terminate(&mut kernel).unwrap();
        let dump = pipeline
            .scrape_after_termination(&mut debugger, &kernel, &observation)
            .unwrap();

        let by_strings = pipeline
            .analyze(&dump.as_view())
            .identified
            .map(|m| m.model);
        let by_weights = identify_model_by_weights(&dump).map(|m| m.model);
        assert_eq!(by_strings, Some(model));
        assert_eq!(by_weights, Some(model));

        // The weight match locates the blob where the profiler would.
        let matched = match_weights_view(&dump.as_view())
            .into_iter()
            .find(|m| m.model == model)
            .unwrap();
        assert!(matched.blob_match_fraction > 0.99);
    }
}
