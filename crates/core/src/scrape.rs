//! Step 3: extract data from physical addresses after victim termination.
//!
//! One function, `ScrapePlan::new`, turns a captured [`HeapTranslation`]
//! and a [`ScrapeMode`] into the physical segments a scrape reads or
//! zero-fills, in virtual order (the `translated_byte_buffer` idiom).  The
//! zero-length, empty-translation, window-end clamp, gap-page and coverage
//! rules live there and nowhere else.  The scrapers only differ in how they
//! take the reads:
//!
//! - `ScrapePlan::read` takes them in one pass, borrowed where the kernel
//!   lends the bytes ([`scrape_heap`] and [`scrape_heap_view`] wrap it);
//! - `ScrapePlan::read_owned` copies them, ticking the kernel between
//!   multi-snapshot passes and running a hook between heap pages (the
//!   live-traffic schedule churns tenants there).

// Lint audit: address arithmetic here is bounds-checked against the
// DRAM window before any narrowing cast or direct index; offsets are
// derived from validated window-relative coordinates.
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use petalinux_sim::{Kernel, PhysBytes, PhysRead};
use xsdb::DebugSession;
use zynq_dram::{PhysAddr, ScrapeView, PAGE_SIZE};
use zynq_mmu::VirtAddr;

use crate::analysis::reconstruct::fuse_into;
use crate::attack::ScrapeMode;
use crate::dump::{HeapView, MemoryDump};
use crate::error::AttackError;
use crate::translate::HeapTranslation;

/// Work run before each heap page of a paged read, given the kernel and the
/// page's index.
pub(crate) type PageHook<'h> = dyn FnMut(&mut Kernel, usize) -> Result<(), AttackError> + 'h;

/// Scrapes the victim's heap from physical memory using a previously captured
/// translation.
///
/// The paper performs this step only after the victim's pid has disappeared
/// from the process list; callers that want the same discipline should check
/// [`DebugSession::is_running`] first (the [`crate::attack::AttackPipeline`]
/// does, and returns [`AttackError::VictimStillRunning`] otherwise).
///
/// Four read strategies are supported:
///
/// - [`ScrapeMode::ContiguousRange`] — the paper's method: translate only the
///   heap's endpoints and read the physical range between them in one sweep.
///   Correct whenever the kernel hands out physically contiguous frames for a
///   contiguous heap (the PetaLinux default), cheap, but defeated by
///   physical-layout randomization.
/// - [`ScrapeMode::BankStriped`] — the same contiguous read executed as
///   concurrent per-bank `devmem` loops over the sharded DRAM store;
///   byte-identical to the contiguous sweep, faster on large heaps.
/// - [`ScrapeMode::PerPage`] — translate and read every page individually; a
///   stronger attacker that tolerates scattered physical layouts.
/// - [`ScrapeMode::MultiSnapshot`] — the contiguous read repeated across
///   revival windows and OR-fused.  Without a mutable kernel the decay clock
///   cannot advance between snapshots, and the fusion of same-tick reads of
///   a monotone decay view is the first read, so here it is one contiguous
///   sweep ([`crate::attack::AttackPipeline::execute`] takes the real
///   N-pass read).
///
/// # Errors
///
/// Returns [`AttackError::TranslationEmpty`] if the translation has no usable
/// physical addresses, and [`AttackError::Channel`] if a physical read is
/// denied or out of range.
pub fn scrape_heap(
    debugger: &mut DebugSession,
    kernel: &Kernel,
    translation: &HeapTranslation,
    mode: ScrapeMode,
) -> Result<MemoryDump, AttackError> {
    let plan = ScrapePlan::new(kernel, translation, mode)?;
    let bytes = plan.read(debugger, kernel)?.into_vec();
    Ok(plan.dump(bytes))
}

/// The zero-copy form of [`scrape_heap`]: the victim's heap as a [`HeapView`]
/// borrowed from the DRAM bank arenas.
///
/// Returns `Ok(None)` when the board's remanence model made the kernel copy
/// the reads (decay); [`scrape_heap`] then gives the owned dump.  A view's
/// bytes and coverage are those of the owned dump, and the audit trail holds
/// the same `ReadPhys` operations.
///
/// # Errors
///
/// Same conditions as [`scrape_heap`].
pub fn scrape_heap_view<'k>(
    debugger: &mut DebugSession,
    kernel: &'k Kernel,
    translation: &HeapTranslation,
    mode: ScrapeMode,
) -> Result<Option<HeapView<'k>>, AttackError> {
    let plan = ScrapePlan::new(kernel, translation, mode)?;
    Ok(match plan.read(debugger, kernel)? {
        PhysBytes::Borrowed(view) => Some(plan.heap_view(view)),
        PhysBytes::Owned(_) => None,
    })
}

/// One stretch of the heap, in virtual order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Segment {
    /// Bytes read from physical memory.
    Read(PhysRead),
    /// Bytes the scrape cannot reach (a missing page, or a tail past the
    /// DRAM window), which read as zeros.
    Zeros(usize),
}

impl Segment {
    fn len(self) -> usize {
        match self {
            Segment::Read(request) => request.len as usize,
            Segment::Zeros(len) => len,
        }
    }

    /// Splits off the first `at` bytes.  The pieces read with one worker:
    /// they are at most a page, too small to fan out.
    fn split_at(self, at: usize) -> (Segment, Segment) {
        match self {
            Segment::Read(request) => {
                let at = at as u64;
                (
                    Segment::Read(PhysRead::new(request.addr, at)),
                    Segment::Read(PhysRead::new(request.addr + at, request.len - at)),
                )
            }
            Segment::Zeros(len) => (Segment::Zeros(at), Segment::Zeros(len - at)),
        }
    }
}

/// The physical reads one heap scrape takes: the segments to read or
/// zero-fill, in virtual order, and the physical source of each heap page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ScrapePlan {
    heap_start: VirtAddr,
    segments: Vec<Segment>,
    page_sources: Vec<Option<PhysAddr>>,
}

impl ScrapePlan {
    /// Lists the reads `mode` takes to scrape the heap `translation`
    /// describes on `kernel`'s board.
    ///
    /// - A zero-length heap is an empty plan.
    /// - The contiguous modes read from the first page's frame for the whole
    ///   heap length.  A range running past the DRAM window (randomized
    ///   layouts can put the first page near the top of memory) is clamped,
    ///   and the tail reads as zeros: the real attack's `devmem` loop would
    ///   simply get errors for those words.  Every page counts as captured.
    /// - The per-page mode reads each present page where it lies; a missing
    ///   page reads as zeros and counts as missing.
    ///
    /// # Errors
    ///
    /// Rejects invalid modes ([`ScrapeMode::validate`]), and returns
    /// [`AttackError::TranslationEmpty`] when the mode finds no page to start
    /// from.
    pub(crate) fn new(
        kernel: &Kernel,
        translation: &HeapTranslation,
        mode: ScrapeMode,
    ) -> Result<Self, AttackError> {
        mode.validate()?;
        let mut plan = ScrapePlan {
            heap_start: translation.heap_start(),
            segments: Vec::new(),
            page_sources: Vec::new(),
        };
        // Checked before `phys_start()`, so a degenerate translation with no
        // pages at all still scrapes empty instead of erroring.
        let len = translation.heap_len();
        if len == 0 {
            return Ok(plan);
        }
        let empty = AttackError::TranslationEmpty {
            pid: translation.pid(),
        };
        if mode.reads_contiguous_range() {
            let start = translation.phys_start().ok_or(empty)?;
            let available = kernel.config().dram().end().offset_from(start).min(len);
            let workers = match mode {
                ScrapeMode::BankStriped { workers } => workers,
                _ => 1,
            };
            plan.segments = vec![
                Segment::Read(PhysRead::new(start, available).with_workers(workers)),
                Segment::Zeros((len - available) as usize),
            ];
            plan.page_sources = (0..len.div_ceil(PAGE_SIZE))
                .map(|page| Some(start + page * PAGE_SIZE))
                .collect();
        } else {
            if translation.present_pages() == 0 {
                return Err(empty);
            }
            plan.segments = translation
                .pages()
                .iter()
                .map(|page| match page {
                    Some(pa) => Segment::Read(PhysRead::new(*pa, PAGE_SIZE)),
                    None => Segment::Zeros(PAGE_SIZE as usize),
                })
                .collect();
            plan.page_sources = translation.pages().to_vec();
        }
        Ok(plan)
    }

    /// Reads the plan in one pass, one debugger read per segment.  The bytes
    /// stay borrowed from the bank arenas when the kernel lends every read
    /// (perfect remanence); a decaying board copies them.
    ///
    /// # Errors
    ///
    /// Propagates the first failed read; the reads before it stay in the
    /// audit trail.
    pub(crate) fn read<'k>(
        &self,
        debugger: &mut DebugSession,
        kernel: &'k Kernel,
    ) -> Result<PhysBytes<'k>, AttackError> {
        read_segments(debugger, kernel, &self.segments)
    }

    /// Reads the plan `snapshots` times into an owned dump, ticking the
    /// kernel once between passes, and OR-fuses each pass into the first as
    /// it arrives (Pentimento's accumulate-across-reads attacker; see
    /// [`crate::analysis::reconstruct::fuse_snapshots`]).  One snapshot is a
    /// plain owned read.
    ///
    /// With `between_pages`, the first pass reads page by page and runs the
    /// hook before each heap page, so the kernel can change under the scrape.
    ///
    /// # Errors
    ///
    /// Propagates read and hook errors.
    pub(crate) fn read_owned(
        &self,
        debugger: &mut DebugSession,
        kernel: &mut Kernel,
        snapshots: usize,
        between_pages: Option<&mut PageHook<'_>>,
    ) -> Result<MemoryDump, AttackError> {
        let mut fused = match between_pages {
            Some(hook) => self.read_paged(debugger, kernel, hook)?,
            None => self.read(debugger, kernel)?.into_vec(),
        };
        for _ in 1..snapshots {
            kernel.tick(1);
            let snapshot = self.read(debugger, kernel)?.into_vec();
            fuse_into(&mut fused, &snapshot);
        }
        Ok(self.dump(fused))
    }

    /// One owned pass, page by page, with `between_pages` run before each
    /// heap page.
    fn read_paged(
        &self,
        debugger: &mut DebugSession,
        kernel: &mut Kernel,
        between_pages: &mut PageHook<'_>,
    ) -> Result<Vec<u8>, AttackError> {
        let mut bytes = Vec::with_capacity(self.segments.iter().map(|s| s.len()).sum());
        for (index, page) in self.pages().iter().enumerate() {
            between_pages(kernel, index)?;
            bytes.extend_from_slice(&read_segments(debugger, kernel, page)?.into_vec());
        }
        Ok(bytes)
    }

    /// The segments cut at heap page boundaries, one list per heap page.
    fn pages(&self) -> Vec<Vec<Segment>> {
        let page_len = PAGE_SIZE as usize;
        let mut pages: Vec<Vec<Segment>> = Vec::new();
        let mut room = 0;
        for &segment in &self.segments {
            let mut rest = segment;
            while rest.len() > 0 {
                if room == 0 {
                    pages.push(Vec::new());
                    room = page_len;
                }
                let (piece, tail) = rest.split_at(rest.len().min(room));
                room -= piece.len();
                if let Some(page) = pages.last_mut() {
                    page.push(piece);
                }
                rest = tail;
            }
        }
        pages
    }

    /// Wraps bytes read under this plan as an owned dump.
    pub(crate) fn dump(&self, bytes: Vec<u8>) -> MemoryDump {
        MemoryDump::from_sources(self.heap_start, bytes, self.page_sources.clone())
    }

    /// Wraps a borrowed view read under this plan as a heap view.
    pub(crate) fn heap_view<'k>(&self, view: ScrapeView<'k>) -> HeapView<'k> {
        let captured = self.page_sources.iter().flatten().count();
        HeapView::new(self.heap_start, view, captured, self.page_sources.len())
    }
}

/// Reads `segments` through `debugger`, joined in order.  Reads come back
/// borrowed or owned as the kernel decides; zero-filled stretches join in the
/// board's view unit, so they stitch with borrowed reads.
fn read_segments<'k>(
    debugger: &mut DebugSession,
    kernel: &'k Kernel,
    segments: &[Segment],
) -> Result<PhysBytes<'k>, AttackError> {
    let mut bytes = PhysBytes::Borrowed(ScrapeView::with_unit(kernel.dram().view_unit()));
    for &segment in segments {
        match segment {
            Segment::Read(request) => bytes.append(debugger.read_phys(kernel, request)?),
            Segment::Zeros(len) => bytes.push_zeros(len),
        }
    }
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use petalinux_sim::{BoardConfig, Pid, UserId};
    use vitis_ai_sim::{DpuRunner, Image, ModelKind};
    use zynq_dram::RemanenceModel;

    use crate::translate::capture_heap_translation;

    fn attacked_board_with(
        board: BoardConfig,
    ) -> (Kernel, vitis_ai_sim::CompletedRun, HeapTranslation) {
        let mut kernel = Kernel::boot(board);
        kernel.set_remanence_seed(99);
        let launched = DpuRunner::new(ModelKind::SqueezeNet)
            .with_input(Image::corrupted(224, 224))
            .launch(&mut kernel, UserId::new(0))
            .unwrap();
        let mut dbg = DebugSession::connect(UserId::new(1));
        let translation = capture_heap_translation(&mut dbg, &kernel, launched.pid()).unwrap();
        let run = launched.terminate(&mut kernel).unwrap();
        (kernel, run, translation)
    }

    fn attacked_board() -> (Kernel, vitis_ai_sim::CompletedRun, HeapTranslation) {
        attacked_board_with(BoardConfig::tiny_for_tests())
    }

    fn decaying_board() -> BoardConfig {
        BoardConfig::tiny_for_tests()
            .with_remanence(RemanenceModel::Exponential { half_life_ticks: 4 })
    }

    /// A translation of `pages` over the attacked heap's virtual window.
    fn with_pages(translation: &HeapTranslation, pages: Vec<Option<PhysAddr>>) -> HeapTranslation {
        HeapTranslation::from_parts(
            translation.pid(),
            translation.heap_start(),
            translation.heap_end(),
            pages,
        )
    }

    /// A synthetic `len`-byte window whose first page is at `first`.
    fn window(len: u64, first: PhysAddr) -> HeapTranslation {
        let start = zynq_mmu::VirtAddr::new(0x1000);
        let mut pages = vec![None; len.div_ceil(PAGE_SIZE).max(1) as usize];
        pages[0] = Some(first);
        HeapTranslation::from_parts(Pid::new(77), start, start + len, pages)
    }

    #[test]
    fn every_mode_recovers_the_residue_and_borrows_it_under_perfect_remanence() {
        let (kernel, run, translation) = attacked_board();
        let mut dbg = DebugSession::connect(UserId::new(1));
        let contiguous =
            scrape_heap(&mut dbg, &kernel, &translation, ScrapeMode::ContiguousRange).unwrap();
        assert_eq!(contiguous.len() as u64, run.layout().heap_len);
        assert_eq!(contiguous.coverage(), 1.0);
        // The dump holds the model string and the corrupted-image marker,
        // i.e. the victim's residue.
        let hex = contiguous.to_hexdump();
        assert!(!hex.grep("squeezenet").is_empty());
        assert_eq!(
            hex.find(&[0xFF; 16]).unwrap() as u64,
            run.layout().image_offset
        );

        // Every mode — multi-snapshot included, which degenerates to one
        // sweep on a borrowed kernel — reads the same bytes, and the borrowed
        // view matches the owned dump in bytes and coverage.
        for mode in [
            ScrapeMode::PerPage,
            ScrapeMode::BankStriped { workers: 1 },
            ScrapeMode::BankStriped { workers: 4 },
            ScrapeMode::MultiSnapshot { snapshots: 3 },
        ] {
            let dump = scrape_heap(&mut dbg, &kernel, &translation, mode).unwrap();
            assert_eq!(dump, contiguous, "{mode}");
            let heap = scrape_heap_view(&mut dbg, &kernel, &translation, mode)
                .unwrap()
                .expect("perfect remanence lends the bytes");
            assert_eq!(heap.to_bytes(), dump.as_bytes(), "{mode}");
            assert_eq!(heap.heap_start(), dump.heap_start(), "{mode}");
            assert_eq!(heap.captured_pages(), dump.captured_pages(), "{mode}");
            assert_eq!(heap.missing_pages(), dump.missing_pages(), "{mode}");
        }
    }

    #[test]
    fn decayed_reads_are_owned_and_the_bank_fan_out_never_changes_them() {
        let (kernel, _run, translation) = attacked_board_with(decaying_board());
        let mut dbg = DebugSession::connect(UserId::new(1));
        let contiguous =
            scrape_heap(&mut dbg, &kernel, &translation, ScrapeMode::ContiguousRange).unwrap();
        for mode in [
            ScrapeMode::ContiguousRange,
            ScrapeMode::PerPage,
            ScrapeMode::BankStriped { workers: 4 },
        ] {
            assert!(scrape_heap_view(&mut dbg, &kernel, &translation, mode)
                .unwrap()
                .is_none());
            let dump = scrape_heap(&mut dbg, &kernel, &translation, mode).unwrap();
            assert_eq!(dump.as_bytes(), contiguous.as_bytes(), "{mode}");
        }
    }

    #[test]
    fn invalid_modes_are_rejected_before_any_read() {
        // The fields are public, so an invalid mode can reach the scrape
        // without passing any builder assert; every path refuses it with the
        // same channel error before touching memory — even for an empty heap.
        let (kernel, _run, _) = attacked_board();
        let mut dbg = DebugSession::connect(UserId::new(1));
        let empty = window(0, kernel.config().dram().base());
        for (mode, message) in [
            (ScrapeMode::BankStriped { workers: 0 }, "zero workers"),
            (ScrapeMode::MultiSnapshot { snapshots: 0 }, "zero snapshots"),
        ] {
            let err = scrape_heap(&mut dbg, &kernel, &empty, mode).unwrap_err();
            assert!(matches!(err, AttackError::Channel(_)), "{err}");
            assert!(err.to_string().contains(message), "{err}");
        }
        assert!(dbg.audit().is_empty());
    }

    #[test]
    fn plan_rules_hold_for_the_borrowed_and_the_owned_scrape() {
        let (kernel, _run, translation) = attacked_board();
        let mut dbg = DebugSession::connect(UserId::new(1));
        let both = |dbg: &mut DebugSession, translation: &HeapTranslation, mode| {
            let dump = scrape_heap(dbg, &kernel, translation, mode).unwrap();
            let heap = scrape_heap_view(dbg, &kernel, translation, mode)
                .unwrap()
                .unwrap();
            assert_eq!(heap.to_bytes(), dump.as_bytes(), "{mode}");
            assert_eq!(heap.coverage(), dump.coverage(), "{mode}");
            dump
        };

        // Gap pages — a leading and an interior one — read as zeros and count
        // as missing.
        let mut pages = translation.pages().to_vec();
        pages[0] = None;
        pages[2] = None;
        let gappy = both(
            &mut dbg,
            &with_pages(&translation, pages),
            ScrapeMode::PerPage,
        );
        assert_eq!(gappy.missing_pages(), 2);
        let page = PAGE_SIZE as usize;
        assert!(gappy.as_bytes()[2 * page..3 * page].iter().all(|&b| b == 0));

        // Window-end clamp: the unreadable tail is zero padding, and every
        // page of the endpoint scrape counts as captured.
        let near_end = kernel.config().dram().end() - PAGE_SIZE;
        let clamped = both(
            &mut dbg,
            &window(4 * PAGE_SIZE, near_end),
            ScrapeMode::ContiguousRange,
        );
        assert_eq!(clamped.len() as u64, 4 * PAGE_SIZE);
        assert_eq!(clamped.coverage(), 1.0);

        // Zero-length and sub-page windows scrape exactly their length.
        let base = kernel.config().dram().base();
        for len in [0, 1, PAGE_SIZE - 1] {
            let dump = both(&mut dbg, &window(len, base), ScrapeMode::ContiguousRange);
            assert_eq!(dump.len() as u64, len);
        }
        assert_eq!(
            both(&mut dbg, &window(0, base), ScrapeMode::PerPage).coverage(),
            0.0
        );

        // No page to start from is a typed error in both modes.
        let empty = with_pages(&translation, vec![None; translation.pages().len()]);
        for mode in [ScrapeMode::PerPage, ScrapeMode::ContiguousRange] {
            assert!(matches!(
                scrape_heap(&mut dbg, &kernel, &empty, mode),
                Err(AttackError::TranslationEmpty { .. })
            ));
        }
    }

    #[test]
    fn snapshot_reads_tick_between_passes_and_fuse_soundly() {
        let (mut kernel, _run, translation) = attacked_board_with(decaying_board());
        let mut dbg = DebugSession::connect(UserId::new(1));
        let mode = ScrapeMode::MultiSnapshot { snapshots: 3 };
        let plan = ScrapePlan::new(&kernel, &translation, mode).unwrap();
        let first = scrape_heap(&mut dbg, &kernel, &translation, mode).unwrap();
        let before = kernel.clock();
        let audited = dbg.audit().len();
        let fused = plan.read_owned(&mut dbg, &mut kernel, 3, None).unwrap();
        // One audited read per snapshot, one tick between snapshots.
        assert_eq!(dbg.audit().len(), audited + 3);
        assert_eq!(kernel.clock(), before + 2);
        // Under monotone decay the fusion equals the earliest snapshot, and
        // later snapshots genuinely lose bytes at this half-life.
        assert_eq!(fused, first);
        let last = scrape_heap(&mut dbg, &kernel, &translation, mode).unwrap();
        let survivors = |bytes: &[u8]| bytes.iter().filter(|&&b| b != 0).count();
        assert!(survivors(last.as_bytes()) < survivors(fused.as_bytes()));
        for (f, l) in fused.as_bytes().iter().zip(last.as_bytes()) {
            assert_eq!(l & !f, 0, "a later bit is missing from the fusion");
        }
    }

    #[test]
    fn paged_reads_run_the_hook_per_page_and_match_the_single_sweep() {
        let (mut kernel, _run, translation) = attacked_board();
        let mut dbg = DebugSession::connect(UserId::new(1));
        let base = kernel.config().dram().base();
        let (empty, sub_page) = (window(0, base), window(PAGE_SIZE - 1, base));
        for (translation, mode) in [
            (&translation, ScrapeMode::ContiguousRange),
            (&translation, ScrapeMode::PerPage),
            (&empty, ScrapeMode::ContiguousRange),
            (&sub_page, ScrapeMode::ContiguousRange),
        ] {
            let pages = translation.heap_len().div_ceil(PAGE_SIZE) as usize;
            let single = scrape_heap(&mut dbg, &kernel, translation, mode).unwrap();
            let plan = ScrapePlan::new(&kernel, translation, mode).unwrap();
            let audited = dbg.audit().len();
            let mut seen = Vec::new();
            let mut hook = |_: &mut Kernel, index: usize| {
                seen.push(index);
                Ok(())
            };
            let paged = plan
                .read_owned(&mut dbg, &mut kernel, 1, Some(&mut hook))
                .unwrap();
            assert_eq!(seen, (0..pages).collect::<Vec<_>>(), "{mode}");
            assert_eq!(dbg.audit().len(), audited + pages, "{mode}");
            assert_eq!(paged, single, "{mode}");
        }
    }
}
