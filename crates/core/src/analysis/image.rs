//! Step 4.b: reconstructing the victim's input image.

use vitis_ai_sim::{Image, ModelKind};
use zynq_dram::ScrapeView;

/// Reconstructs the input image of `model` from scraped bytes, given the
/// heap-relative byte offset the image starts at.  The image bytes are
/// copied out (an [`Image`] owns its pixels); everything around them stays
/// zero-copy.
///
/// Returns `None` when the bytes do not extend far enough (e.g. the memory
/// was sanitized and the dump is empty or truncated).
pub fn reconstruct_image_view(
    view: &ScrapeView<'_>,
    model: ModelKind,
    offset: u64,
) -> Option<Image> {
    let (w, h) = model.input_dims();
    let len = (w * h * 3) as usize;
    let bytes = view.to_vec_range(usize::try_from(offset).ok()?, len)?;
    Image::reconstruct(w, h, &bytes)
}

/// Scores a reconstruction against the ground-truth input: the fraction of
/// pixels recovered exactly.
///
/// A missing reconstruction scores 0.
pub fn recovery_rate(reconstructed: Option<&Image>, ground_truth: &Image) -> f64 {
    match reconstructed {
        Some(image) => image.pixel_recovery_rate(ground_truth),
        None => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dump::MemoryDump;
    use vitis_ai_sim::runner::heap_image;
    use zynq_dram::PhysAddr;
    use zynq_mmu::VirtAddr;

    fn dump_for(model: ModelKind, input: &Image) -> (MemoryDump, u64) {
        let (bytes, layout) = heap_image(model, input);
        (
            MemoryDump::from_contiguous(
                VirtAddr::new(0xaaaa_ee77_5000),
                PhysAddr::new(0x6_0000_0000),
                bytes,
            ),
            layout.image_offset,
        )
    }

    #[test]
    fn reconstruction_at_correct_offset_is_exact() {
        let input = Image::sample_photo(224, 224);
        let (dump, offset) = dump_for(ModelKind::Resnet50Pt, &input);
        let rebuilt =
            reconstruct_image_view(&dump.as_view(), ModelKind::Resnet50Pt, offset).unwrap();
        assert_eq!(rebuilt, input);
        assert_eq!(recovery_rate(Some(&rebuilt), &input), 1.0);
    }

    #[test]
    fn reconstruction_at_wrong_offset_scores_poorly() {
        let input = Image::sample_photo(224, 224);
        let (dump, offset) = dump_for(ModelKind::Resnet50Pt, &input);
        let wrong =
            reconstruct_image_view(&dump.as_view(), ModelKind::Resnet50Pt, offset + 1024).unwrap();
        assert!(wrong.pixel_recovery_rate(&input) < 0.5);
    }

    #[test]
    fn truncated_dump_yields_none() {
        let input = Image::corrupted(224, 224);
        let (dump, offset) = dump_for(ModelKind::Resnet50Pt, &input);
        // An offset near the end cannot fit a whole image.
        assert!(reconstruct_image_view(
            &dump.as_view(),
            ModelKind::Resnet50Pt,
            dump.len() as u64 - 16
        )
        .is_none());
        assert_eq!(recovery_rate(None, &input), 0.0);
        // Sanity: the correct offset still works.
        assert!(reconstruct_image_view(&dump.as_view(), ModelKind::Resnet50Pt, offset).is_some());
    }

    #[test]
    fn corrupted_image_reconstructs_to_all_ff() {
        let input = Image::corrupted(224, 224);
        let (dump, offset) = dump_for(ModelKind::Resnet50Pt, &input);
        let rebuilt =
            reconstruct_image_view(&dump.as_view(), ModelKind::Resnet50Pt, offset).unwrap();
        assert!(rebuilt.as_bytes().iter().all(|&b| b == 0xFF));
        assert_eq!(recovery_rate(Some(&rebuilt), &input), 1.0);
    }
}
