//! Integration tests: cross-crate invariants of the simulation substrates.

use fpga_msa::debugger::DebugSession;
use fpga_msa::dram::{SanitizePolicy, PAGE_SIZE};
use fpga_msa::petalinux::procfs;
use fpga_msa::petalinux::{BoardConfig, Kernel, PhysRead, Shell, UserId};
use fpga_msa::vitis::{DpuRunner, Image, ModelKind};

#[test]
fn procfs_views_agree_with_debugger_views() {
    let mut kernel = Kernel::boot(BoardConfig::tiny_for_tests());
    let run = DpuRunner::new(ModelKind::SqueezeNet)
        .launch(&mut kernel, UserId::new(0))
        .unwrap();
    let shell = Shell::new(UserId::new(1));
    let mut debugger = DebugSession::connect(UserId::new(1));

    // ps -ef and the debugger's process list agree.
    let listing = shell.ps_ef(&kernel);
    let via_ps = procfs::parse_pid_for_command(&listing, "squeezenet").unwrap();
    let via_dbg = debugger.find_pid(&kernel, "squeezenet").unwrap();
    assert_eq!(via_ps, via_dbg.as_u32());
    assert_eq!(via_dbg, run.pid());

    // The maps file and the pagemap agree on the heap's extent.
    let maps = shell.cat_maps(&kernel, run.pid()).unwrap();
    let (heap_start, heap_end) = procfs::parse_heap_range(&maps).unwrap();
    let pages = (heap_end.offset_from(heap_start) / PAGE_SIZE) as usize;
    let entries = debugger
        .read_pagemap(&kernel, run.pid(), heap_start, pages)
        .unwrap();
    assert!(entries.iter().all(|e| e.is_present()));

    // Every pagemap-derived physical address reads back the same bytes the
    // process sees through its own virtual mapping.
    for (i, entry) in entries.iter().enumerate().step_by(7) {
        let va = heap_start + (i as u64) * PAGE_SIZE;
        let pa = entry.frame_number().unwrap().base_address();
        let phys = debugger
            .read_phys(&kernel, PhysRead::new(pa, 64))
            .unwrap()
            .into_vec();
        let mut virt = vec![0u8; 64];
        kernel
            .read_process_memory(run.pid(), va, &mut virt)
            .unwrap();
        assert_eq!(phys, virt, "mismatch at heap page {i}");
    }
}

#[test]
fn residue_accounting_matches_what_the_attacker_can_read() {
    let mut kernel = Kernel::boot(BoardConfig::tiny_for_tests());
    let run = DpuRunner::new(ModelKind::MobileNetV2)
        .with_input(Image::corrupted(224, 224))
        .run_to_completion(&mut kernel, UserId::new(0))
        .unwrap();

    // The kernel reports residue frames for exactly the victim's heap size.
    let expected_frames = (run.layout().heap_len / PAGE_SIZE) as usize;
    assert_eq!(kernel.residue_frame_count(), expected_frames);

    // And the DRAM's residue-byte accounting is non-trivial (the heap holds
    // the model, weights and image).
    assert!(kernel.dram().residue_bytes() > run.layout().heap_len / 2);
}

#[test]
fn background_scrub_window_closes_after_the_deadline() {
    let delay = 500;
    let mut kernel = Kernel::boot(
        BoardConfig::tiny_for_tests()
            .with_sanitize_policy(SanitizePolicy::Background { delay_ticks: delay }),
    );
    let run = DpuRunner::new(ModelKind::SqueezeNet)
        .with_input(Image::corrupted(224, 224))
        .run_to_completion(&mut kernel, UserId::new(0))
        .unwrap();
    assert_eq!(kernel.pending_scrubs(), 1);
    assert!(kernel.residue_frame_count() > 0);

    // Before the deadline the residue is there; after it, it is gone.
    kernel.tick(delay / 2);
    assert!(kernel.dram().residue_bytes() > 0);
    kernel.tick(delay);
    assert_eq!(kernel.pending_scrubs(), 0);
    assert_eq!(kernel.dram().residue_bytes(), 0);
    drop(run);
}

#[test]
fn sanitizing_boards_free_frames_for_reuse_without_leaking_data() {
    let mut kernel = Kernel::boot(
        BoardConfig::tiny_for_tests().with_sanitize_policy(SanitizePolicy::ZeroOnFree),
    );
    // Run the same model twice; the second run reuses the first run's frames.
    let first = DpuRunner::new(ModelKind::SqueezeNet)
        .with_input(Image::corrupted(224, 224))
        .run_to_completion(&mut kernel, UserId::new(0))
        .unwrap();
    let second = DpuRunner::new(ModelKind::SqueezeNet)
        .launch(&mut kernel, UserId::new(2))
        .unwrap();
    assert_eq!(first.model(), second.model());
    // The new process's heap (whose frames are reused from the first run by
    // the LIFO allocator) contains no corrupted-image residue beyond its own
    // (sample-photo) input.
    let heap_base = kernel.process(second.pid()).unwrap().heap_base();
    let mut probe = vec![0u8; 4096];
    kernel
        .read_process_memory(
            second.pid(),
            heap_base + second.layout().image_offset,
            &mut probe,
        )
        .unwrap();
    assert!(
        !probe.windows(16).any(|w| w.iter().all(|&b| b == 0xFF)),
        "previous tenant's corrupted image leaked into the new process"
    );
    assert_eq!(kernel.residue_frame_count(), 0);
}

#[test]
fn zcu104_and_zcu102_presets_differ_only_in_capacity_for_the_attack() {
    for board in [BoardConfig::zcu104(), BoardConfig::zcu102()] {
        let mut kernel = Kernel::boot(board);
        let run = DpuRunner::new(ModelKind::Resnet50Pt)
            .run_to_completion(&mut kernel, UserId::new(0))
            .unwrap();
        assert!(kernel.residue_frame_count() > 0);
        assert_eq!(run.model(), ModelKind::Resnet50Pt);
        // Physical frames live in the board's high DRAM window, as in the
        // paper's devmem addresses.
        let residue_frame = kernel.dram().residue_frames().next().unwrap().0;
        assert!(board.dram().contains_frame(residue_frame));
    }
}
