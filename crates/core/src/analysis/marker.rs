//! Marker scanning: locating `FFFF FFFF` / `5555 5555` runs in the dump.
//!
//! The paper finds the corrupted input image by searching the hexdump for the
//! `FFFF FFFF` identifier (Figure 12), and learns the image's offset offline
//! by searching for `5555 5555` in a profiling run.  This module provides the
//! run-length scanner behind both steps.

// Lint audit: indexes and slice bounds here are established by the
// surrounding length checks / loop invariants before use.
#![allow(clippy::indexing_slicing)]

use serde::{Deserialize, Serialize};
use zynq_dram::ScrapeView;

use crate::dump::MemoryDump;

/// The corrupted-image marker word (`0xFFFFFF` pixels produce all-0xFF bytes).
pub const CORRUPTED_MARKER: u32 = 0xFFFF_FFFF;

/// The offline-profiling sentinel word (`0x555555` pixels).
pub const SENTINEL_MARKER: u32 = 0x5555_5555;

/// A maximal run of a repeated marker word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MarkerRun {
    /// Byte offset of the run within the dump.
    pub offset: u64,
    /// Length of the run in bytes.
    pub len: u64,
}

impl MarkerRun {
    /// One past the last byte of the run.
    pub fn end(&self) -> u64 {
        self.offset + self.len
    }
}

/// Finds maximal runs of `marker` (repeated little-endian 32-bit words) that
/// are at least `min_len` bytes long.
pub fn marker_runs_view(view: &ScrapeView<'_>, marker: u32, min_len: u64) -> Vec<MarkerRun> {
    let pattern = marker.to_le_bytes();
    let uniform = pattern.iter().all(|&b| b == pattern[0]);
    if uniform {
        // Runs of a repeated byte are not word-quantized in the dump, so the
        // word-based scan below would miss a maximal run of 1–3 bytes even at
        // `min_len < 4`.  Scan byte-wise over the segments instead; maximal
        // runs of >= 4 bytes come out identical to the word scan.
        return uniform_byte_runs(view, pattern[0], min_len);
    }
    let len = view.len();
    let mut runs = Vec::new();
    let mut i = 0usize;
    while i + 4 <= len {
        if view.word_eq(i, &pattern) {
            let start = i;
            while view.word_eq(i, &pattern) {
                i += 4;
            }
            // Extend over a partial trailing word of the same byte (runs of a
            // repeated byte are not word-quantized in the dump).
            while uniform && i < len && view.byte_at(i) == pattern[0] {
                i += 1;
            }
            let run_len = (i - start) as u64;
            if run_len >= min_len {
                runs.push(MarkerRun {
                    offset: start as u64,
                    len: run_len,
                });
            }
        } else {
            i += 1;
        }
    }
    runs
}

/// Maximal runs of the repeated byte `value`, at least `min_len` bytes long,
/// scanned segment-by-segment (runs may straddle segment boundaries).
///
/// Inside each segment the scan jumps from one run boundary to the next: the
/// first `value` byte outside a run, the first other byte inside one.
fn uniform_byte_runs(view: &ScrapeView<'_>, value: u8, min_len: u64) -> Vec<MarkerRun> {
    let mut runs = Vec::new();
    let mut run_start: Option<usize> = None;
    let mut segment_start = 0usize;
    for segment in view.segments() {
        let mut i = 0usize;
        while let Some(step) = next_boundary(&segment[i..], value, run_start.is_none()) {
            i += step;
            let pos = segment_start + i;
            match run_start.take() {
                Some(start) => push_run(&mut runs, start, pos, min_len),
                None => run_start = Some(pos),
            }
        }
        segment_start += segment.len();
    }
    if let Some(start) = run_start {
        push_run(&mut runs, start, segment_start, min_len);
    }
    runs
}

/// Index of the first byte of `bytes` that equals `value` (`equal`) or
/// differs from it (`!equal`).  Whole blocks are tested without a branch per
/// byte, which the compiler vectorises; only the block holding the boundary
/// is searched byte by byte.
fn next_boundary(bytes: &[u8], value: u8, equal: bool) -> Option<usize> {
    const BLOCK: usize = 32;
    let is_boundary = |byte: u8| (byte == value) == equal;
    let mut skipped = 0usize;
    for block in bytes.chunks_exact(BLOCK) {
        if block
            .iter()
            .fold(false, |hit, &byte| hit | is_boundary(byte))
        {
            break;
        }
        skipped += BLOCK;
    }
    bytes[skipped..]
        .iter()
        .position(|&byte| is_boundary(byte))
        .map(|i| skipped + i)
}

/// Records the run `[start, end)` when it is at least `min_len` bytes long.
fn push_run(runs: &mut Vec<MarkerRun>, start: usize, end: usize, min_len: u64) {
    let len = (end - start) as u64;
    if len >= min_len {
        runs.push(MarkerRun {
            offset: start as u64,
            len,
        });
    }
}

/// The first marker run of at least `min_len` bytes, if any.
///
/// The paper uses the first occurrence as the image's starting offset.
pub fn first_marker_offset(dump: &MemoryDump, marker: u32, min_len: u64) -> Option<u64> {
    marker_runs_view(&dump.as_view(), marker, min_len)
        .first()
        .map(|r| r.offset)
}

/// Total number of marker bytes in the dump (a coarse "how much of the image
/// survived" measure used by the defense experiments).
pub fn marker_bytes(dump: &MemoryDump, marker: u32) -> u64 {
    marker_runs_view(&dump.as_view(), marker, 4)
        .iter()
        .map(|r| r.len)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::segmented_view;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use zynq_dram::PhysAddr;
    use zynq_mmu::VirtAddr;

    /// The byte-at-a-time scan that [`uniform_byte_runs`] replaced.
    fn bytewise_runs(view: &ScrapeView<'_>, value: u8, min_len: u64) -> Vec<MarkerRun> {
        let mut runs = Vec::new();
        let mut run_start: Option<usize> = None;
        let mut pos = 0usize;
        for segment in view.segments() {
            for &byte in segment {
                if byte == value {
                    run_start.get_or_insert(pos);
                } else if let Some(start) = run_start.take() {
                    push_run(&mut runs, start, pos, min_len);
                }
                pos += 1;
            }
        }
        if let Some(start) = run_start {
            push_run(&mut runs, start, pos, min_len);
        }
        runs
    }

    proptest! {
        #[test]
        fn run_scan_matches_the_bytewise_reference(
            unit_shift in 2u32..10,
            head in 0usize..40,
            symbols in vec(0usize..3, 0..32),
            lens in vec(1usize..100, 32),
            gaps in vec(0u8..5, 0..64),
            zero_marker in any::<bool>(),
            min_len in 1u64..12,
        ) {
            // Runs of a marker byte, zeros and another byte; gaps add zero
            // runs at chunk seams, which are runs when the marker is zero.
            let value = if zero_marker { 0 } else { 0xFF };
            let data: Vec<u8> = symbols
                .iter()
                .zip(&lens)
                .flat_map(|(&symbol, &len)| std::iter::repeat_n([0xFF, 0, 0x12][symbol], len))
                .collect();
            let gaps: Vec<bool> = gaps.iter().map(|&g| g == 0).collect();
            let view = segmented_view(&data, head, 1 << unit_shift, &gaps);
            prop_assert_eq!(
                uniform_byte_runs(&view, value, min_len),
                bytewise_runs(&view, value, min_len)
            );
        }
    }

    fn dump_of(bytes: Vec<u8>) -> MemoryDump {
        MemoryDump::from_contiguous(VirtAddr::new(0), PhysAddr::new(0), bytes)
    }

    #[test]
    fn finds_a_single_run_at_the_right_offset() {
        let mut bytes = vec![0u8; 100];
        bytes.extend_from_slice(&[0xFF; 64]);
        bytes.extend_from_slice(&[0u8; 36]);
        let dump = dump_of(bytes);
        let runs = marker_runs_view(&dump.as_view(), CORRUPTED_MARKER, 16);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].offset, 100);
        assert_eq!(runs[0].len, 64);
        assert_eq!(runs[0].end(), 164);
        assert_eq!(first_marker_offset(&dump, CORRUPTED_MARKER, 16), Some(100));
        assert_eq!(marker_bytes(&dump, CORRUPTED_MARKER), 64);
    }

    #[test]
    fn respects_min_len_and_multiple_runs() {
        let mut bytes = vec![0u8; 16];
        bytes.extend_from_slice(&[0x55; 8]); // short run
        bytes.extend_from_slice(&[0u8; 16]);
        bytes.extend_from_slice(&[0x55; 32]); // long run
        let dump = dump_of(bytes);
        let long_only = marker_runs_view(&dump.as_view(), SENTINEL_MARKER, 16);
        assert_eq!(long_only.len(), 1);
        assert_eq!(long_only[0].offset, 40);
        let all = marker_runs_view(&dump.as_view(), SENTINEL_MARKER, 4);
        assert_eq!(all.len(), 2);
        assert_eq!(marker_bytes(&dump, SENTINEL_MARKER), 40);
    }

    #[test]
    fn unaligned_run_is_still_found() {
        let mut bytes = vec![0u8; 3];
        bytes.extend_from_slice(&[0xFF; 20]);
        bytes.push(0);
        let dump = dump_of(bytes);
        let runs = marker_runs_view(&dump.as_view(), CORRUPTED_MARKER, 8);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].offset, 3);
        assert_eq!(runs[0].len, 20);
    }

    #[test]
    fn no_marker_means_no_runs() {
        let dump = dump_of(vec![0u8; 256]);
        assert!(marker_runs_view(&dump.as_view(), CORRUPTED_MARKER, 4).is_empty());
        assert!(first_marker_offset(&dump, CORRUPTED_MARKER, 4).is_none());
        assert_eq!(marker_bytes(&dump, CORRUPTED_MARKER), 0);
        // Empty dump.
        assert!(marker_runs_view(&dump_of(Vec::new()).as_view(), CORRUPTED_MARKER, 4).is_empty());
    }

    #[test]
    fn distinct_markers_do_not_interfere() {
        let mut bytes = vec![0xFFu8; 16];
        bytes.extend_from_slice(&[0x55; 16]);
        let dump = dump_of(bytes);
        assert_eq!(first_marker_offset(&dump, CORRUPTED_MARKER, 8), Some(0));
        assert_eq!(first_marker_offset(&dump, SENTINEL_MARKER, 8), Some(16));
    }

    #[test]
    fn chunked_view_scan_matches_the_owned_scan() {
        // Runs straddling chunk boundaries must be found identically whether
        // the bytes live in one owned buffer or a multi-segment view.
        let mut bytes = vec![0u8; 50];
        bytes.extend_from_slice(&[0xFF; 100]); // spans the 64-byte boundary
        bytes.extend_from_slice(&[0u8; 42]);
        bytes.extend_from_slice(&[0x55; 19]); // unaligned tail run
        let dump = dump_of(bytes.clone());

        let mut view = ScrapeView::with_unit(64);
        for chunk in bytes.chunks(64) {
            view.push_chunk(chunk);
        }
        for (marker, min_len) in [(CORRUPTED_MARKER, 16), (SENTINEL_MARKER, 4)] {
            assert_eq!(
                marker_runs_view(&view, marker, min_len),
                marker_runs_view(&dump.as_view(), marker, min_len),
                "marker {marker:08x}"
            );
        }
    }

    #[test]
    fn uniform_runs_shorter_than_a_word_are_found_at_small_min_len() {
        // Regression: the word-quantized scan missed maximal uniform runs of
        // 1–3 bytes even when `min_len < 4`.
        let mut bytes = vec![0u8; 8];
        bytes.extend_from_slice(&[0xFF; 3]);
        bytes.extend_from_slice(&[0u8; 5]);
        bytes.push(0xFF);
        bytes.extend_from_slice(&[0u8; 7]);
        let dump = dump_of(bytes);
        let runs = marker_runs_view(&dump.as_view(), CORRUPTED_MARKER, 2);
        assert_eq!(
            runs,
            vec![MarkerRun { offset: 8, len: 3 }],
            "the 3-byte run clears min_len=2, the single byte does not"
        );
        let ones = marker_runs_view(&dump.as_view(), CORRUPTED_MARKER, 1);
        assert_eq!(
            ones,
            vec![
                MarkerRun { offset: 8, len: 3 },
                MarkerRun { offset: 16, len: 1 },
            ]
        );
        // min_len >= 4 still sees nothing here.
        assert!(marker_runs_view(&dump.as_view(), CORRUPTED_MARKER, 4).is_empty());
    }

    #[test]
    fn short_uniform_run_at_the_dump_tail_is_found() {
        let mut bytes = vec![0u8; 6];
        bytes.extend_from_slice(&[0x55; 2]);
        let dump = dump_of(bytes);
        assert_eq!(
            marker_runs_view(&dump.as_view(), SENTINEL_MARKER, 2),
            vec![MarkerRun { offset: 6, len: 2 }]
        );
    }

    #[test]
    fn non_repeating_marker_word_matches_exact_sequences_only() {
        // A marker whose bytes are not all identical (regression for the
        // tail-extension logic).
        let marker = 0x0102_0304u32;
        let mut bytes = marker.to_le_bytes().repeat(3);
        bytes.push(0x04);
        let dump = dump_of(bytes);
        let runs = marker_runs_view(&dump.as_view(), marker, 4);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].len, 12);
    }
}
