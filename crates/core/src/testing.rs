//! Builders shared by the unit tests of the scanning passes.

use zynq_dram::ScrapeView;

/// Splits `data` into a segmented view: a head of `head` bytes (clamped to
/// the data), then `unit`-byte chunks.  Chunk `i` becomes a `push_zeros`
/// gap of the same length when `gaps[i]` is set, as a missing page does in
/// a scrape.
pub(crate) fn segmented_view<'a>(
    data: &'a [u8],
    head: usize,
    unit: usize,
    gaps: &[bool],
) -> ScrapeView<'a> {
    let (head, body) = data.split_at(head.min(data.len()));
    let mut view = ScrapeView::with_unit(unit);
    view.set_head(head);
    for (i, chunk) in body.chunks(unit).enumerate() {
        if gaps.get(i).copied().unwrap_or(false) {
            view.push_zeros(chunk.len());
        } else {
            view.push_chunk(chunk);
        }
    }
    view
}
