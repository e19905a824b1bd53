//! Step 4.a: identifying the model from strings in the dump.

// Lint audit: indexes and slice bounds here are established by the
// surrounding length checks / loop invariants before use.
#![allow(clippy::indexing_slicing)]

use zynq_dram::ScrapeView;

use crate::dump::MemoryDump;
use crate::signature::{ModelMatch, SignatureDb};

/// Identifies the model most likely to have produced the scraped bytes.
///
/// Returns `None` when no signature pattern appears at all (e.g. when the
/// memory was sanitized).
pub fn identify_model_view(view: &ScrapeView<'_>, db: &SignatureDb) -> Option<ModelMatch> {
    db.best_match_view(view)
}

/// Returns the `grep`-style evidence lines for a match: every hexdump row
/// whose ASCII rendering contains the model's name (the paper's Figure 11).
pub fn evidence_lines(dump: &MemoryDump, matched: &ModelMatch) -> Vec<String> {
    dump.to_hexdump().grep(matched.model.name())
}

/// Lists all printable strings in the dump that look like filesystem paths,
/// a useful triage view for an analyst (not used by the automated pipeline).
pub fn path_like_strings(dump: &MemoryDump) -> Vec<String> {
    dump.ascii_strings(6)
        .into_iter()
        .filter(|s| s.contains('/'))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use petalinux_sim::{BoardConfig, Kernel, UserId};
    use vitis_ai_sim::{DpuRunner, ModelKind};
    use xsdb::DebugSession;
    use zynq_dram::PhysAddr;
    use zynq_mmu::VirtAddr;

    use crate::attack::ScrapeMode;
    use crate::scrape::scrape_heap;
    use crate::translate::capture_heap_translation;

    fn scraped_dump(model: ModelKind) -> MemoryDump {
        let mut kernel = Kernel::boot(BoardConfig::tiny_for_tests());
        let launched = DpuRunner::new(model)
            .launch(&mut kernel, UserId::new(0))
            .unwrap();
        let mut dbg = DebugSession::connect(UserId::new(1));
        let translation = capture_heap_translation(&mut dbg, &kernel, launched.pid()).unwrap();
        launched.terminate(&mut kernel).unwrap();
        scrape_heap(&mut dbg, &kernel, &translation, ScrapeMode::ContiguousRange).unwrap()
    }

    #[test]
    fn identifies_every_zoo_model_from_its_own_dump() {
        let db = SignatureDb::standard();
        for model in [
            ModelKind::Resnet50Pt,
            ModelKind::SqueezeNet,
            ModelKind::YoloV3,
        ] {
            let dump = scraped_dump(model);
            let matched =
                identify_model_view(&dump.as_view(), &db).expect("model should be identified");
            assert_eq!(matched.model, model, "misidentified {model}");
            assert!(matched.confidence() >= 0.5);
            let lines = evidence_lines(&dump, &matched);
            assert!(!lines.is_empty());
            assert!(lines[0].contains(model.name()));
        }
    }

    #[test]
    fn sanitized_dump_yields_no_identification() {
        let dump = MemoryDump::from_contiguous(VirtAddr::new(0), PhysAddr::new(0), vec![0u8; 8192]);
        assert!(identify_model_view(&dump.as_view(), &SignatureDb::standard()).is_none());
        assert!(path_like_strings(&dump).is_empty());
    }

    #[test]
    fn path_like_strings_surface_library_paths() {
        let dump = scraped_dump(ModelKind::MobileNetV2);
        let paths = path_like_strings(&dump);
        assert!(paths.iter().any(|p| p.contains("vitis_ai_library")));
    }
}
