//! Golden pin of the attacker's debugger audit trail.
//!
//! The defender's detector (`msa_core::detect`) reads nothing but
//! `AuditLog` entries, so the sequence of operations each scrape strategy
//! leaves behind is part of the attack's observable behaviour.  This suite
//! renders every debugger session's `AuditLog::records()` next to the
//! non-timing fields of the attack outcome for:
//!
//! - every `ScrapeMode` × remanence {perfect, exponential hl=4} × swap
//!   {off, on(50)} × sanitize {none, zero-on-free}, through
//!   `AttackPipeline::execute`;
//! - the live-traffic scraper at churn 0 and 1, for every mode, on a
//!   perfect board and on a decaying swap board;
//! - a confined-policy denial at the physical read, which must record
//!   exactly one denied entry in every mode (a multi-snapshot batch
//!   included);
//!
//! and diffs the text against `tests/golden/audit_trail.txt`.
//!
//! On a mismatch the test writes the full rendering next to the build's
//! integration-test scratch files and names the path; after an intentional
//! change, review the diff and copy that file over the golden.

use std::fmt::Write as _;
use std::path::Path;

use fpga_msa::debugger::{AuditLog, DebugSession};
use fpga_msa::dram::{RemanenceModel, SanitizePolicy};
use fpga_msa::msa::attack::{AttackConfig, AttackPipeline, ScrapeMode};
use fpga_msa::msa::scenario::{AttackScenario, VictimSchedule};
use fpga_msa::msa::AttackOutcome;
use fpga_msa::petalinux::{BoardConfig, IsolationPolicy, Kernel, UserId};
use fpga_msa::vitis::{DpuRunner, Image, ModelKind};

const MODES: [ScrapeMode; 4] = [
    ScrapeMode::ContiguousRange,
    ScrapeMode::PerPage,
    ScrapeMode::BankStriped { workers: 4 },
    ScrapeMode::MultiSnapshot { snapshots: 3 },
];

const REMANENCE: [RemanenceModel; 2] = [
    RemanenceModel::Perfect,
    RemanenceModel::Exponential { half_life_ticks: 4 },
];

/// FNV-1a, enough to pin a reconstructed image in one token.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn render_audit(out: &mut String, log: &AuditLog) {
    for record in log.records() {
        let verdict = if record.allowed { "allowed" } else { "denied" };
        writeln!(out, "  user={} {} {verdict}", record.user, record.op).unwrap();
    }
}

fn render_outcome(out: &mut String, outcome: &AttackOutcome) {
    let image = outcome
        .reconstructed_image
        .as_ref()
        .map(|image| format!("{:016x}", fnv1a(image.as_bytes())));
    writeln!(out, "  pid={}", outcome.victim_pid).unwrap();
    writeln!(out, "  identified={:?}", outcome.identified).unwrap();
    writeln!(out, "  marker_runs={:?}", outcome.marker_runs).unwrap();
    writeln!(
        out,
        "  image={image:?} offset={:?}",
        outcome.image_offset_used
    )
    .unwrap();
    writeln!(
        out,
        "  bytes_scraped={} coverage={:?}",
        outcome.bytes_scraped, outcome.dump_coverage
    )
    .unwrap();
}

/// One pipeline attack on a fresh board: the victim runs as user 0, the
/// attacker observes it, it terminates, the attacker scrapes and analyses.
fn pipeline_cell(out: &mut String, board: BoardConfig, mode: ScrapeMode) {
    let mut kernel = Kernel::boot(board);
    kernel.set_remanence_seed(7);
    let victim = DpuRunner::new(ModelKind::SqueezeNet)
        .with_input(Image::corrupted(224, 224))
        .launch(&mut kernel, UserId::new(0))
        .unwrap();
    let pipeline = AttackPipeline::new(AttackConfig {
        scrape_mode: mode,
        reconstruct: true,
        ..AttackConfig::default()
    });
    let mut debugger = DebugSession::connect(UserId::new(1));
    let observation = pipeline.poll_and_observe(&mut debugger, &kernel).unwrap();
    victim.terminate(&mut kernel).unwrap();
    let outcome = pipeline
        .execute(&mut debugger, &mut kernel, &observation)
        .unwrap();
    render_audit(out, debugger.audit());
    render_outcome(out, &outcome);
}

fn pipeline_matrix() -> String {
    let mut out = String::new();
    for mode in MODES {
        for remanence in REMANENCE {
            for swap in [0u8, 50] {
                for sanitize in [SanitizePolicy::None, SanitizePolicy::ZeroOnFree] {
                    let board = BoardConfig::tiny_for_tests()
                        .with_remanence(remanence)
                        .with_swap(swap)
                        .with_sanitize_policy(sanitize);
                    writeln!(
                        out,
                        "== execute mode={mode} remanence={remanence} swap={swap}% sanitize={sanitize}"
                    )
                    .unwrap();
                    pipeline_cell(&mut out, board, mode);
                }
            }
        }
    }
    out
}

fn live_traffic_matrix() -> String {
    let mut out = String::new();
    let boards = [
        ("perfect", BoardConfig::tiny_for_tests()),
        (
            "hl4-swap50",
            BoardConfig::tiny_for_tests()
                .with_remanence(RemanenceModel::Exponential { half_life_ticks: 4 })
                .with_swap(50),
        ),
    ];
    for mode in MODES {
        for (label, board) in boards {
            for churn_rate in [0usize, 1] {
                let schedule = VictimSchedule::LiveTraffic {
                    tenants: 2,
                    churn_rate,
                };
                writeln!(out, "== {schedule} mode={mode} board={label}").unwrap();
                let outcome = AttackScenario::new(board, ModelKind::SqueezeNet)
                    .with_corrupted_input()
                    .with_offline_profiling(false)
                    .with_schedule(schedule)
                    .with_seed(11)
                    .with_attack_config(AttackConfig {
                        scrape_mode: mode,
                        ..AttackConfig::default()
                    })
                    .execute()
                    .unwrap();
                render_audit(&mut out, outcome.audit());
                render_outcome(&mut out, outcome.attack());
                writeln!(
                    out,
                    "  churn_events={} frames_lost={}",
                    outcome.residue_lifetime().churn_events,
                    outcome.residue_lifetime().frames_lost_before_scrape
                )
                .unwrap();
            }
        }
    }
    out
}

/// The attacker shares the victim's (non-root) user, so the confined policy
/// lets it read `/proc` and denies only the physical read itself.
fn confined_denials() -> String {
    let mut out = String::new();
    for mode in MODES {
        let board = BoardConfig::tiny_for_tests().with_isolation(IsolationPolicy::Confined);
        let mut kernel = Kernel::boot(board);
        let user = UserId::new(1);
        let victim = DpuRunner::new(ModelKind::SqueezeNet)
            .launch(&mut kernel, user)
            .unwrap();
        let pipeline = AttackPipeline::new(AttackConfig {
            scrape_mode: mode,
            ..AttackConfig::default()
        });
        let mut debugger = DebugSession::connect(user);
        let observation = pipeline.poll_and_observe(&mut debugger, &kernel).unwrap();
        victim.terminate(&mut kernel).unwrap();
        let error = pipeline
            .execute(&mut debugger, &mut kernel, &observation)
            .unwrap_err();
        assert_eq!(debugger.audit().denied_count(), 1, "{mode}");
        writeln!(out, "== confined mode={mode}").unwrap();
        render_audit(&mut out, debugger.audit());
        writeln!(out, "  error={error}").unwrap();
    }
    out
}

#[test]
fn audit_trails_match_the_golden() {
    let actual = [pipeline_matrix(), live_traffic_matrix(), confined_denials()].concat();
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/audit_trail.txt");
    let expected = std::fs::read_to_string(&golden).expect("golden file is committed");
    if actual != expected {
        let rendered = Path::new(env!("CARGO_TARGET_TMPDIR")).join("audit_trail.txt");
        std::fs::write(&rendered, &actual).unwrap();
        let first = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
        panic!(
            "audit trail diverges from {} at line {} (full output in {}):\n  actual:   {:?}\n  expected: {:?}",
            golden.display(),
            first + 1,
            rendered.display(),
            actual.lines().nth(first),
            expected.lines().nth(first)
        );
    }
}
