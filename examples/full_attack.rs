//! The full attack, step by step, with terminal output mirroring the paper's
//! Figures 5–12: process listings, the heap line from `maps`, the translated
//! physical endpoints, `devmem` reads, the hexdump `grep` hit and the
//! corrupted-image marker rows.
//!
//! Run with: `cargo run --example full_attack`

// Lint audit: narrowing casts here operate on values already clamped
// to their target range by the surrounding arithmetic.
#![allow(clippy::cast_possible_truncation)]

use fpga_msa::debugger::DebugSession;
use fpga_msa::msa::attack::{AttackConfig, AttackPipeline};
use fpga_msa::msa::detect::{DetectorConfig, ScrapingDetector};
use fpga_msa::msa::profile::Profiler;
use fpga_msa::petalinux::{BoardConfig, Kernel, Shell, UserId};
use fpga_msa::vitis::{DpuRunner, Image, ModelKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let board = BoardConfig::zcu104();
    let victim_user = UserId::new(0);
    let attacker_user = UserId::new(1);

    // ---- Offline phase (paper §II adversary model): profile the public
    // model library on the attacker's own board.
    println!("== offline profiling (attacker's own board) ==");
    let profiles = Profiler::new(board).profile_all();
    for profile in profiles.iter() {
        println!(
            "  {:<18} image offset {:>8} bytes into heap, heap {} bytes",
            profile.model.to_string(),
            profile.image_offset,
            profile.heap_len
        );
    }

    let pipeline = AttackPipeline::new(AttackConfig::default()).with_profiles(profiles);

    // ---- Online phase: the victim board.
    let mut kernel = Kernel::boot(board);
    let attacker_shell = Shell::new(attacker_user);
    let mut debugger = DebugSession::connect(attacker_user);

    // Background processes so the listings have the paper's shape.
    kernel.spawn(victim_user, &["[kworker/3:0-events]"])?;
    kernel.spawn(attacker_user, &["-sh"])?;

    println!("\n== step 1: ps -ef before the victim runs (Figure 5) ==");
    print!("{}", attacker_shell.ps_ef(&kernel));

    // The victim runs resnet50_pt on the corrupted (0xFFFFFF) image, exactly
    // as in the paper's experiment.
    let victim = DpuRunner::new(ModelKind::Resnet50Pt)
        .with_input(Image::corrupted(224, 224))
        .launch(&mut kernel, victim_user)?;

    println!("\n== step 1: ps -ef with the victim running (Figure 6) ==");
    print!("{}", attacker_shell.ps_ef(&kernel));

    let pid = pipeline.poll_for_victim(&mut debugger, &kernel)?;
    println!("victim pid observed: {pid}");

    println!("\n== step 2: heap range from /proc/{pid}/maps (Figure 7) ==");
    let maps = debugger.read_maps(&kernel, pid)?;
    for line in maps.lines().filter(|l| l.contains("[heap]")) {
        println!("{line}");
    }

    let observation = pipeline.observe_victim(&mut debugger, &kernel, pid)?;
    let translation = observation.translation();
    println!("\n== step 2: virtual_to_physical conversion (Figure 8) ==");
    println!(
        "{} -> {}",
        translation.heap_start(),
        translation.phys_start().expect("heap start resident")
    );
    println!(
        "{} -> {}",
        translation.heap_end(),
        translation.phys_end().expect("heap end resident")
    );

    // The victim finishes and its pid disappears.
    victim.terminate(&mut kernel)?;
    println!("\n== step 3: ps -ef after termination (Figure 9) ==");
    print!("{}", attacker_shell.ps_ef(&kernel));

    println!("\n== step 3: devmem reads of the residual data (Figure 10) ==");
    let start = translation.phys_start().expect("heap start resident");
    for offset in [0u64, 0x730, 0x1000] {
        let addr = start + offset;
        let word = debugger.read_phys_u32(&kernel, addr)?;
        println!("devmem {addr} -> {word:#010x}");
    }

    let outcome = pipeline.execute(&mut debugger, &mut kernel, &observation)?;

    println!("\n== step 4.a: grep for the model name in the hexdump (Figure 11) ==");
    // Re-scrape just to render the evidence lines (the pipeline already did
    // the analysis internally).
    let dump = pipeline.scrape_after_termination(&mut debugger, &kernel, &observation)?;
    for line in dump.to_hexdump().grep("resnet50").into_iter().take(3) {
        println!("{line}");
    }

    println!("\n== step 4.b: corrupted-image marker rows (Figure 12) ==");
    if let Some(run) = outcome.marker_runs.first() {
        println!(
            "first FFFF FFFF run at heap offset {:#x}, {} bytes long",
            run.offset, run.len
        );
        let hexdump = dump.to_hexdump();
        for row in hexdump.rows().skip((run.offset as usize) / 16).take(3) {
            println!("{}", row.render());
        }
    }

    println!("\n== attack outcome ==");
    println!(
        "identified model : {}",
        outcome
            .identified_model()
            .map(|m| m.to_string())
            .unwrap_or_else(|| "<none>".to_string())
    );
    println!(
        "image recovered  : {:.1}% of pixels",
        outcome.image_recovery_rate(&Image::corrupted(224, 224)) * 100.0
    );
    println!(
        "step timings     : poll {:?}, translate {:?}, scrape {:?}, analyze {:?}",
        outcome.timings.poll,
        outcome.timings.translate,
        outcome.timings.scrape,
        outcome.timings.analyze
    );

    // ---- Defender's view: what a board-side monitor would have seen.
    println!("\n== defender view: debugger audit log ==");
    println!(
        "operations logged: {}, physical bytes read: {}",
        debugger.audit().len(),
        debugger.audit().physical_bytes_read()
    );
    let detector = ScrapingDetector::new(DetectorConfig::default());
    match detector.inspect(&kernel, debugger.user(), debugger.audit()) {
        Some(finding) => println!(
            "detection: {} (target pid {:?}) — {}",
            finding.severity, finding.target, finding.reason
        ),
        None => println!("detection: nothing flagged"),
    }
    Ok(())
}
