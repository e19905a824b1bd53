//! Decay-tolerant reconstruction: recovering signal a single exact-matching
//! pass writes off.
//!
//! PR 5's remanence axis ([`zynq_dram::RemanenceModel`]) degrades residue by
//! clearing bits — whole bytes under `Exponential`, individual bits under
//! `BitFlip` — and the exact-matching analysis loses the victim the moment a
//! single signature byte or image row is touched.  The paper's attacker (and
//! Pentimento's) instead accumulates weak analog signals across repeated
//! reads.  This module implements that accumulation as three cooperating
//! recoverers:
//!
//! 1. **Snapshot fusion** ([`fuse_snapshots`], [`vote_snapshots`]): the same
//!    physical range is scraped N times across revival windows and fused
//!    per bit.  Decay only ever *clears* bits, so OR-fusion is sound — a set
//!    bit in any snapshot was a set bit in the raw residue — and per-bit
//!    voting bounds false positives if a channel model ever sets bits.
//! 2. **Fuzzy model identification** ([`fuzzy_identify_view`]): signature
//!    strings are scored by bit-level consistency instead of exact equality,
//!    so [`crate::SignatureDb`] still names the model after decay has clipped
//!    bits out of the library-path strings.  The match distance is threaded
//!    into [`ModelMatch::fuzzy_distance`].
//! 3. **Entropy-guided image repair** ([`entropy_image_offset`],
//!    [`repair_image`]): entropy region classes locate the image run when
//!    neither profile nor marker offset survives, and flipped pixels are
//!    interpolated from their neighbors before `recovery_rate` scoring.

// Lint audit: address arithmetic here is bounds-checked against the
// DRAM window before any narrowing cast or direct index; offsets are
// derived from validated window-relative coordinates.
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use vitis_ai_sim::Image;
use zynq_dram::ScrapeView;

use crate::analysis::entropy::{classify_regions_view, RegionClass, DEFAULT_WINDOW};
use crate::signature::{ModelMatch, ShiftAnd, SignatureDb};

/// Minimum number of exactly-surviving non-zero pattern bytes a fuzzy window
/// must contain: consistency alone is too weak (an all-zero window is
/// consistent with everything).
pub const MIN_EXACT_BYTES: usize = 4;

/// Minimum fraction of the pattern's set bits that must survive in the
/// window for a fuzzy match to count.
pub const MIN_BIT_EVIDENCE: f64 = 0.35;

/// Maximum neighbor-interpolation passes [`repair_image`] runs before giving
/// up on reaching a fixpoint.
const MAX_REPAIR_PASSES: usize = 4;

/// OR-fuses N snapshots of the same physical range into one byte vector.
///
/// Sound under every shipped decay model: [`zynq_dram::RemanenceModel`] decay
/// only ever clears bits, so any bit set in any snapshot was genuinely set in
/// the raw residue.  The fused byte is therefore a bitwise superset of every
/// individual snapshot and a subset of the undecayed residue.
///
/// The result has the length of the longest snapshot; shorter snapshots
/// contribute zeros past their end.  An empty slice fuses to an empty vector.
pub fn fuse_snapshots(snapshots: &[Vec<u8>]) -> Vec<u8> {
    let mut fused = Vec::new();
    for snapshot in snapshots {
        fuse_into(&mut fused, snapshot);
    }
    fused
}

/// OR-fuses one more snapshot into `fused` in place, zero-extending `fused`
/// to the snapshot's length: the step [`fuse_snapshots`] folds, for readers
/// that fuse each snapshot as it arrives instead of holding them all.
pub(crate) fn fuse_into(fused: &mut Vec<u8>, snapshot: &[u8]) {
    if fused.len() < snapshot.len() {
        fused.resize(snapshot.len(), 0);
    }
    for (acc, byte) in fused.iter_mut().zip(snapshot) {
        *acc |= byte;
    }
}

/// Per-bit majority vote across N snapshots: a bit is set in the result when
/// it is set in at least `quorum` snapshots.
///
/// `quorum == 1` degenerates to [`fuse_snapshots`] (OR).  Against a channel
/// that could also *set* bits spuriously, a higher quorum bounds the false
/// positive rate at the cost of dropping late-decaying true bits.
///
/// # Panics
///
/// Panics if `quorum` is zero (a zero quorum would set every bit).
pub fn vote_snapshots(snapshots: &[Vec<u8>], quorum: usize) -> Vec<u8> {
    assert!(quorum > 0, "vote quorum must be non-zero");
    let len = snapshots.iter().map(Vec::len).max().unwrap_or(0);
    let mut voted = vec![0u8; len];
    for (i, out) in voted.iter_mut().enumerate() {
        let mut counts = [0usize; 8];
        for snapshot in snapshots {
            let byte = snapshot.get(i).copied().unwrap_or(0);
            for (bit, count) in counts.iter_mut().enumerate() {
                *count += usize::from(byte >> bit & 1);
            }
        }
        for (bit, count) in counts.iter().enumerate() {
            if *count >= quorum {
                *out |= 1 << bit;
            }
        }
    }
    voted
}

/// Scores `pattern` against every window of `bytes` with decay-aware
/// consistency, returning the best (smallest) match distance found.
///
/// A window byte `w` is *consistent* with a pattern byte `p` when
/// `w & !p == 0` — every surviving bit agrees, and missing bits are treated
/// as erasures (decay clears bits, never sets them).  A window qualifies
/// when it is consistent throughout, keeps at least [`MIN_EXACT_BYTES`]
/// non-zero pattern bytes fully intact, and retains at least
/// [`MIN_BIT_EVIDENCE`] of the pattern's set bits.  The distance is the
/// fraction of pattern bits missing from the window (0.0 = exact match).
///
/// This is the one-pattern case of the scan [`fuzzy_identify_view`] runs
/// over a whole database.
pub fn fuzzy_scan(bytes: &[u8], pattern: &[u8]) -> Option<f64> {
    best_distances(&ShiftAnd::new(std::iter::once(pattern)), &[pattern], bytes)[0]
}

/// The best match distance of every pattern in `bytes` (see
/// [`fuzzy_scan`]), from one Shift-And pass of `scanner`, which was built
/// over `patterns`.
fn best_distances(scanner: &ShiftAnd, patterns: &[&[u8]], bytes: &[u8]) -> Vec<Option<f64>> {
    let mut best: Vec<Option<f64>> = vec![None; patterns.len()];
    scanner.scan(bytes, |id, end| {
        let pattern = patterns[id];
        if best[id] == Some(0.0) {
            return;
        }
        if let Some(distance) = score_window(&bytes[end - pattern.len()..end], pattern) {
            if best[id].is_none_or(|b| distance < b) {
                best[id] = Some(distance);
            }
        }
    });
    best
}

/// One window's decay-aware score against the pattern (see [`fuzzy_scan`]).
fn score_window(window: &[u8], pattern: &[u8]) -> Option<f64> {
    let mut exact_nonzero = 0usize;
    let mut surviving_bits = 0u32;
    let mut total_bits = 0u32;
    for (&w, &p) in window.iter().zip(pattern) {
        if w & !p != 0 {
            return None;
        }
        if w == p && p != 0 {
            exact_nonzero += 1;
        }
        surviving_bits += (w & p).count_ones();
        total_bits += p.count_ones();
    }
    let evidence = f64::from(surviving_bits) / f64::from(total_bits);
    if exact_nonzero < MIN_EXACT_BYTES || evidence < MIN_BIT_EVIDENCE {
        return None;
    }
    Some(1.0 - evidence)
}

/// Decay-tolerant model identification: scores every signature in `db`
/// against the dump with [`fuzzy_scan`] and returns the best match, if any
/// pattern still carries enough bit evidence.
///
/// One Shift-And pass over the dump scores every pattern of the database
/// at once; the tables are built with the database.
///
/// The returned match reports how many patterns matched fuzzily (`hits`) and
/// the mean match distance across them ([`ModelMatch::fuzzy_distance`],
/// `Some(0.0)` when the surviving fragments were exact).  Ties are broken
/// toward the smaller distance.
pub fn fuzzy_identify_view(view: &ScrapeView<'_>, db: &SignatureDb) -> Option<ModelMatch> {
    let owned;
    let bytes: &[u8] = match view.try_borrow(0, view.len()) {
        Some(slice) => slice,
        None => {
            owned = view.to_vec();
            &owned
        }
    };
    let patterns: Vec<&[u8]> = db
        .signatures()
        .iter()
        .flat_map(|sig| sig.patterns.iter().map(String::as_bytes))
        .collect();
    let mut distances = best_distances(db.shift_and(), &patterns, bytes).into_iter();
    let mut matches: Vec<ModelMatch> = db
        .signatures()
        .iter()
        .filter_map(|sig| {
            let found: Vec<f64> = distances
                .by_ref()
                .take(sig.patterns.len())
                .flatten()
                .collect();
            if found.is_empty() {
                return None;
            }
            let mean = found.iter().sum::<f64>() / found.len() as f64;
            Some(ModelMatch {
                model: sig.model,
                hits: found.len(),
                total_patterns: sig.patterns.len(),
                fuzzy_distance: Some(mean),
            })
        })
        .collect();
    matches.sort_by(|a, b| {
        b.confidence()
            .partial_cmp(&a.confidence())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| {
                a.fuzzy_distance
                    .partial_cmp(&b.fuzzy_distance)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
    });
    matches.into_iter().next()
}

/// Entropy-guided image location: the heap-relative offset of the longest
/// run of image-like windows (non-zero filler or structured data) big enough
/// to hold an `image_len`-byte image.
///
/// This is the last-resort offset source when decay has destroyed both the
/// profile match and the marker runs: an input image survives as a long
/// stretch of windows that are neither zero, text, nor high-entropy weights.
/// Returns `None` when no candidate run is long enough.
pub fn entropy_image_offset(view: &ScrapeView<'_>, image_len: usize) -> Option<u64> {
    let regions = classify_regions_view(view, DEFAULT_WINDOW);
    let image_like = |class: RegionClass| {
        matches!(
            class,
            RegionClass::Filler { value: _ } | RegionClass::Structured
        )
    };
    let mut best: Option<(u64, usize)> = None;
    let mut run: Option<(u64, usize)> = None;
    for region in &regions {
        if image_like(region.class) {
            let (_, len) = run.get_or_insert((region.offset, 0));
            *len += region.len;
        } else if let Some(candidate) = run.take() {
            if candidate.1 >= image_len && best.is_none_or(|b| candidate.1 > b.1) {
                best = Some(candidate);
            }
        }
    }
    if let Some(candidate) = run {
        if candidate.1 >= image_len && best.is_none_or(|b| candidate.1 > b.1) {
            best = Some(candidate);
        }
    }
    best.map(|(offset, _)| offset)
}

/// Repairs decay damage in a reconstructed image by neighbor interpolation,
/// running up to `MAX_REPAIR_PASSES` passes or until a fixpoint.
///
/// Two conservative repairs, both gated so an undamaged image passes through
/// bit-identical:
///
/// * an **erased** channel byte (0, the `Exponential` signature) is restored
///   only when at least two of its 4-neighbors agree *exactly* on a non-zero
///   value — natural gradients rarely produce exact agreement, so solid
///   regions heal while photo detail is left alone;
/// * a **clipped** byte (`BitFlip`) is promoted to the strict-majority bit
///   consensus of its non-zero neighbors only when it is a bitwise subset of
///   that consensus — i.e. only bits that decay could have cleared are ever
///   re-set, never bits the neighbors disagree on.
///
/// Each pass reads only the previous one (Jacobi iteration), so two
/// image-sized buffers are swapped between passes.  A missing neighbor
/// counts as a zero one, since only non-zero neighbors vote: the top and
/// bottom rows read one zero row, the first and last pixel of a row are
/// repaired on their own, and the interior reads the row against itself
/// shifted by one pixel either way.
pub fn repair_image(image: &Image) -> Image {
    let width = image.width() as usize;
    let height = image.height() as usize;
    if width == 0 || height == 0 {
        return image.clone();
    }
    let stride = width * 3;
    let zeros = vec![0u8; stride];
    let mut current = image.as_bytes().to_vec();
    let mut next = vec![0u8; current.len()];
    for _ in 0..MAX_REPAIR_PASSES {
        let mut changed = 0u8;
        for (y, out) in next.chunks_exact_mut(stride).enumerate() {
            let up = if y > 0 {
                &current[(y - 1) * stride..][..stride]
            } else {
                &zeros
            };
            let down = if y + 1 < height {
                &current[(y + 1) * stride..][..stride]
            } else {
                &zeros
            };
            changed |= repair_row(&current[y * stride..][..stride], up, down, out);
        }
        std::mem::swap(&mut current, &mut next);
        if changed == 0 {
            break;
        }
    }
    Image::from_raw(image.width(), image.height(), current)
}

/// One pass over one row of channel bytes: writes the repaired `row` to
/// `out`, given the rows above and below, and returns the OR of every
/// changed bit.
fn repair_row(row: &[u8], up: &[u8], down: &[u8], out: &mut [u8]) -> u8 {
    let stride = row.len();
    let mut changed = 0;
    let mut edge = |c: usize, left: u8, right: u8| {
        out[c] = repair_byte(row[c], left, right, up[c], down[c]);
        changed |= out[c] ^ row[c];
    };
    if stride == 3 {
        for c in 0..3 {
            edge(c, 0, 0);
        }
        return changed;
    }
    for c in 0..3 {
        edge(c, 0, row[c + 3]);
        edge(stride - 3 + c, row[stride - 6 + c], 0);
    }
    // The interior, with every neighbor slice cut to the same length so
    // the loop compiles without bounds checks.
    let n = stride - 6;
    let (own, left, right) = (&row[3..][..n], &row[..n], &row[6..][..n]);
    let (up, down, out) = (&up[3..][..n], &down[3..][..n], &mut out[3..][..n]);
    for i in 0..n {
        out[i] = repair_byte(own[i], left[i], right[i], up[i], down[i]);
        changed |= out[i] ^ own[i];
    }
    changed
}

/// One channel byte's repair decision (see [`repair_image`]), without
/// branches; a missing neighbor is passed as 0.
///
/// * Erased: the neighbor with the largest key `votes << 12 | popcount << 8
///   | value` among the non-zero neighbors with at least two votes, where a
///   neighbor's votes count the non-zero neighbors equal to it; 0 when none
///   has two.
/// * Clipped: the strict majority of the non-zero neighbors is "at least 2
///   of 4" bits, or "at least 3 of 4" when all four are non-zero (zero
///   neighbors carry no bits).  With fewer than two non-zero neighbors that
///   mask is 0, which no non-zero byte is a subset of.
#[inline(always)]
fn repair_byte(own: u8, left: u8, right: u8, up: u8, down: u8) -> u8 {
    let key = |value: u8, a: u8, b: u8, c: u8| {
        let votes = 1 + u16::from(value == a) + u16::from(value == b) + u16::from(value == c);
        let counted = u16::from((value != 0) & (votes >= 2));
        (votes << 12 | (value.count_ones() as u16) << 8 | u16::from(value)) * counted
    };
    let erased = key(left, right, up, down)
        .max(key(right, left, up, down))
        .max(key(up, left, right, down))
        .max(key(down, left, right, up)) as u8;
    let two = (left | right) & (up | down) | left & right | up & down;
    let three = left & right & (up | down) | up & down & (left | right);
    let all_voting = (left != 0) & (right != 0) & (up != 0) & (down != 0);
    let consensus = if all_voting { three } else { two };
    let clipped = if own & !consensus == 0 {
        consensus
    } else {
        own
    };
    if own == 0 {
        erased
    } else {
        clipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::ModelSignature;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use vitis_ai_sim::ModelKind;

    fn view_of(bytes: &[u8]) -> ScrapeView<'_> {
        ScrapeView::from_slice(bytes)
    }

    /// The per-pattern window loop the Shift-And scan replaced.
    fn fuzzy_scan_oracle(bytes: &[u8], pattern: &[u8]) -> Option<f64> {
        if pattern.is_empty() || bytes.len() < pattern.len() {
            return None;
        }
        let total_bits: u32 = pattern.iter().map(|p| p.count_ones()).sum();
        if total_bits == 0 {
            return None;
        }
        let mut nonzero_in_window = bytes[..pattern.len()].iter().filter(|&&b| b != 0).count();
        let mut best: Option<f64> = None;
        for start in 0..=bytes.len() - pattern.len() {
            if start > 0 {
                nonzero_in_window += usize::from(bytes[start + pattern.len() - 1] != 0);
            }
            if nonzero_in_window >= MIN_EXACT_BYTES {
                if let Some(distance) = score_window(&bytes[start..start + pattern.len()], pattern)
                {
                    if best.is_none_or(|b| distance < b) {
                        best = Some(distance);
                    }
                    if distance == 0.0 {
                        return best;
                    }
                }
            }
            nonzero_in_window -= usize::from(bytes[start] != 0);
        }
        best
    }

    /// The identification the one-pass scan replaced: one
    /// [`fuzzy_scan_oracle`] per pattern, then the same ranking.
    fn fuzzy_identify_oracle(bytes: &[u8], db: &SignatureDb) -> Option<ModelMatch> {
        let mut matches: Vec<ModelMatch> = db
            .signatures()
            .iter()
            .filter_map(|sig| {
                let distances: Vec<f64> = sig
                    .patterns
                    .iter()
                    .filter_map(|pattern| fuzzy_scan_oracle(bytes, pattern.as_bytes()))
                    .collect();
                if distances.is_empty() {
                    return None;
                }
                let mean = distances.iter().sum::<f64>() / distances.len() as f64;
                Some(ModelMatch {
                    model: sig.model,
                    hits: distances.len(),
                    total_patterns: sig.patterns.len(),
                    fuzzy_distance: Some(mean),
                })
            })
            .collect();
        matches.sort_by(|a, b| {
            b.confidence()
                .partial_cmp(&a.confidence())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| {
                    a.fuzzy_distance
                        .partial_cmp(&b.fuzzy_distance)
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
        });
        matches.into_iter().next()
    }

    /// The per-byte repair loop the two-buffer kernel replaced.
    fn repair_image_oracle(image: &Image) -> Image {
        let width = image.width() as usize;
        let height = image.height() as usize;
        let mut pixels = image.as_bytes().to_vec();
        if width == 0 || height == 0 {
            return image.clone();
        }
        for _ in 0..MAX_REPAIR_PASSES {
            let previous = pixels.clone();
            for y in 0..height {
                for x in 0..width {
                    for channel in 0..3 {
                        let at = |x: usize, y: usize| previous[(y * width + x) * 3 + channel];
                        let mut neighbors = [0u8; 4];
                        let mut count = 0usize;
                        if x > 0 {
                            neighbors[count] = at(x - 1, y);
                            count += 1;
                        }
                        if x + 1 < width {
                            neighbors[count] = at(x + 1, y);
                            count += 1;
                        }
                        if y > 0 {
                            neighbors[count] = at(x, y - 1);
                            count += 1;
                        }
                        if y + 1 < height {
                            neighbors[count] = at(x, y + 1);
                            count += 1;
                        }
                        let own = at(x, y);
                        if let Some(repaired) = repair_byte_oracle(own, &neighbors[..count]) {
                            pixels[(y * width + x) * 3 + channel] = repaired;
                        }
                    }
                }
            }
            if pixels == previous {
                break;
            }
        }
        Image::reconstruct(image.width(), image.height(), &pixels)
            .expect("repair preserves dimensions")
    }

    fn repair_byte_oracle(own: u8, neighbors: &[u8]) -> Option<u8> {
        let nonzero: Vec<u8> = neighbors.iter().copied().filter(|&n| n != 0).collect();
        if nonzero.len() < 2 {
            return None;
        }
        if own == 0 {
            return nonzero
                .iter()
                .map(|&value| {
                    let votes = nonzero.iter().filter(|&&n| n == value).count();
                    (votes, value.count_ones(), value)
                })
                .filter(|&(votes, _, _)| votes >= 2)
                .max()
                .map(|(_, _, value)| value);
        }
        let mut consensus = 0u8;
        for bit in 0..8 {
            let votes = nonzero.iter().filter(|&&n| n >> bit & 1 == 1).count();
            if 2 * votes > nonzero.len() {
                consensus |= 1 << bit;
            }
        }
        (own & !consensus == 0 && own != consensus).then_some(consensus)
    }

    /// Channel values of the random repair images: few enough that
    /// neighbors often agree exactly, nested so clipped bytes can be
    /// promoted, a pair (0x0F, 0x30) whose popcount and value order
    /// disagree for the erased-byte tie-break, and 0 for erasures.
    const CHANNEL_VALUES: [u8; 6] = [0, 0x01, 0x0F, 0x30, 0x3F, 0xFF];

    fn random_image(width: u32, height: u32, picks: &[usize]) -> Image {
        let len = (width * height * 3) as usize;
        let pixels = picks
            .iter()
            .cycle()
            .take(len)
            .map(|&pick| CHANNEL_VALUES[pick % CHANNEL_VALUES.len()])
            .collect();
        Image::from_raw(width, height, pixels)
    }

    /// `truth` with a hash-picked share of its bytes erased (`erase`) or
    /// with one bit cleared (otherwise).
    fn decayed(truth: &Image, erase: bool) -> Image {
        let mut bytes = truth.as_bytes().to_vec();
        for (i, byte) in bytes.iter_mut().enumerate() {
            let hash = (i as u32).wrapping_mul(0x9E37_79B9);
            match (erase, hash % 5) {
                (true, 0 | 1) => *byte = 0,
                (false, 0..=2) => *byte &= !(1 << (hash >> 28 & 7)),
                _ => {}
            }
        }
        Image::from_raw(truth.width(), truth.height(), bytes)
    }

    fn assert_repair_matches_oracle(image: &Image) {
        let repaired = repair_image(image);
        assert!(
            repaired == repair_image_oracle(image),
            "repair differs from the oracle at {}x{}",
            image.width(),
            image.height()
        );
    }

    proptest! {
        #[test]
        fn repair_matches_the_oracle_on_random_images(
            width in 0u32..70,
            height in 0u32..70,
            picks in vec(0usize..64, 1..400),
        ) {
            assert_repair_matches_oracle(&random_image(width, height, &picks));
        }

        #[test]
        fn repair_matches_the_oracle_on_narrow_images(
            width in 1u32..3,
            height in 1u32..40,
            picks in vec(0usize..64, 1..200),
        ) {
            // Strides of 3 and 6 bytes: only the row-edge path runs.
            assert_repair_matches_oracle(&random_image(width, height, &picks));
            assert_repair_matches_oracle(&random_image(height, 1, &picks));
        }
    }

    #[test]
    fn repair_matches_the_oracle_at_edge_and_model_sizes() {
        for (width, height) in [(0, 5), (5, 0), (0, 0), (1, 1), (1, 7), (2, 7), (7, 1)] {
            assert_repair_matches_oracle(&random_image(width, height, &[1, 5, 0, 3, 4, 2, 5]));
        }
        for side in [224, 240, 416] {
            let truth = Image::sample_photo(side, side);
            assert_repair_matches_oracle(&decayed(&truth, true));
            assert_repair_matches_oracle(&decayed(&truth, false));
        }
    }

    /// Bytes of the random fuzzy dumps and patterns: a few letters whose
    /// bits nest, so decayed windows are often consistent, and 0.
    const FUZZY_ALPHABET: [u8; 5] = [0, b'a', b'c', b'q', b's'];

    proptest! {
        #[test]
        fn fuzzy_scan_matches_the_oracle_over_random_databases(
            lens in vec(0usize..90, 1..10),
            raw in vec(0usize..5, 500),
            data in vec(0usize..5, 0..600),
            plants in vec(any::<usize>(), 0..6),
            clears in vec(any::<usize>(), 0..60),
            sig_sizes in vec(0usize..5, 1..7),
            picks in vec(any::<usize>(), 24),
        ) {
            // The pool holds patterns from 0 to 89 bytes (so they straddle
            // word boundaries and exceed 64 bytes), an all-NUL pattern and
            // one longer than the dump.
            let mut source = raw.iter().cycle();
            let mut pool: Vec<Vec<u8>> = lens
                .iter()
                .map(|&len| source.by_ref().take(len).map(|&i| FUZZY_ALPHABET[i]).collect())
                .collect();
            pool.push(vec![0; 7]);
            let mut bytes: Vec<u8> = data.iter().map(|&i| FUZZY_ALPHABET[i]).collect();
            pool.push(vec![b's'; bytes.len() + 1]);

            // Plant pool patterns, the first two at the first and last byte,
            // then decay them: runs of zeros and cleared bits.
            for (n, &plant) in plants.iter().enumerate() {
                let pattern = &pool[plant % pool.len()];
                if pattern.len() > bytes.len() {
                    continue;
                }
                let start = match n {
                    0 => 0,
                    1 => bytes.len() - pattern.len(),
                    _ => (plant >> 16) % (bytes.len() - pattern.len() + 1),
                };
                bytes[start..start + pattern.len()].copy_from_slice(pattern);
            }
            for &clear in &clears {
                if bytes.is_empty() {
                    break;
                }
                let at = clear % bytes.len();
                if clear >> 40 & 1 == 0 {
                    let end = (at + (clear >> 20) % 12).min(bytes.len());
                    bytes[at..end].fill(0);
                } else {
                    bytes[at] &= !(1 << (clear >> 32 & 7));
                }
            }

            // Signatures draw from the pool with replacement, so patterns
            // recur within and across signatures.
            let mut picks = picks.iter().cycle();
            let signatures = sig_sizes
                .iter()
                .enumerate()
                .map(|(i, &size)| ModelSignature {
                    model: ModelKind::all()[i % ModelKind::all().len()],
                    patterns: picks
                        .by_ref()
                        .take(size)
                        .map(|&pick| {
                            String::from_utf8(pool[pick % pool.len()].clone())
                                .expect("the alphabet is ASCII")
                        })
                        .collect(),
                })
                .collect();
            let db = SignatureDb::from_signatures(signatures);

            let patterns: Vec<&[u8]> = db
                .signatures()
                .iter()
                .flat_map(|sig| sig.patterns.iter().map(String::as_bytes))
                .collect();
            let oracle: Vec<Option<f64>> =
                patterns.iter().map(|p| fuzzy_scan_oracle(&bytes, p)).collect();
            prop_assert_eq!(best_distances(db.shift_and(), &patterns, &bytes), oracle.clone());
            let single: Vec<Option<f64>> = patterns.iter().map(|p| fuzzy_scan(&bytes, p)).collect();
            prop_assert_eq!(single, oracle);
            prop_assert_eq!(
                fuzzy_identify_view(&view_of(&bytes), &db),
                fuzzy_identify_oracle(&bytes, &db)
            );
        }
    }

    #[test]
    fn or_fusion_is_a_superset_of_every_snapshot() {
        let snaps = vec![
            vec![0b1010_0000, 0x00, 0xFF],
            vec![0b0000_1010, 0x0F, 0x0F],
            vec![0b1000_0001, 0x00],
        ];
        let fused = fuse_snapshots(&snaps);
        assert_eq!(fused, vec![0b1010_1011, 0x0F, 0xFF]);
        for snap in &snaps {
            for (f, s) in fused.iter().zip(snap) {
                assert_eq!(s & !f, 0, "snapshot bit missing from fusion");
            }
        }
        assert!(fuse_snapshots(&[]).is_empty());
    }

    #[test]
    fn voting_with_quorum_one_is_or_and_higher_quorums_drop_lone_bits() {
        let snaps = vec![vec![0b0000_1111], vec![0b0000_0111], vec![0b0000_0011]];
        assert_eq!(vote_snapshots(&snaps, 1), fuse_snapshots(&snaps));
        assert_eq!(vote_snapshots(&snaps, 2), vec![0b0000_0111]);
        assert_eq!(vote_snapshots(&snaps, 3), vec![0b0000_0011]);
    }

    #[test]
    #[should_panic(expected = "quorum")]
    fn zero_quorum_is_rejected() {
        vote_snapshots(&[vec![1]], 0);
    }

    #[test]
    fn fuzzy_scan_finds_exact_and_byte_erased_patterns() {
        let pattern = b"vitis_ai_library/models/resnet50_pt";
        let mut dump = vec![0u8; 256];
        dump[64..64 + pattern.len()].copy_from_slice(pattern);
        assert_eq!(fuzzy_scan(&dump, pattern), Some(0.0));

        // Clear every third byte (Exponential-style whole-byte erasure).
        for (i, byte) in dump[64..64 + pattern.len()].iter_mut().enumerate() {
            if i % 3 == 0 {
                *byte = 0;
            }
        }
        let distance = fuzzy_scan(&dump, pattern).expect("erasures still match");
        assert!(distance > 0.0 && distance < 0.5, "{distance}");
    }

    #[test]
    fn fuzzy_scan_survives_bit_clipping_but_rejects_noise_and_blanks() {
        let pattern = b"vitis_ai_library/models/yolov3";
        let mut dump = vec![0u8; 512];
        dump[100..100 + pattern.len()].copy_from_slice(pattern);
        // Clip one bit out of every second byte (BitFlip-style).
        for (i, byte) in dump[100..100 + pattern.len()].iter_mut().enumerate() {
            if i % 2 == 0 {
                *byte &= !(1 << (i % 8));
            }
        }
        let distance = fuzzy_scan(&dump, pattern).expect("clipped bits still match");
        assert!(distance > 0.0, "some bits are genuinely missing");

        // An all-zero dump is consistent with everything but carries no
        // evidence; conflicting bytes are rejected outright.
        assert_eq!(fuzzy_scan(&vec![0u8; 256], pattern), None);
        let conflicting = vec![0xAAu8; 256];
        assert_eq!(fuzzy_scan(&conflicting, pattern), None);
        // Degenerate inputs.
        assert_eq!(fuzzy_scan(&[], pattern), None);
        assert_eq!(fuzzy_scan(&dump, &[]), None);
        assert_eq!(fuzzy_scan(&dump, &[0u8; 8]), None);
    }

    #[test]
    fn fuzzy_identification_names_the_model_after_decay() {
        let db = SignatureDb::standard();
        let mut dump = vec![0u8; 2048];
        let path = b"vitis_ai_library/models/resnet50_pt";
        dump[300..300 + path.len()].copy_from_slice(path);
        let name = b"resnet50_pt";
        dump[900..900 + name.len()].copy_from_slice(name);
        // Erase 40% of the path bytes — exact matching is now hopeless.
        for (i, byte) in dump[300..300 + path.len()].iter_mut().enumerate() {
            if i % 5 < 2 {
                *byte = 0;
            }
        }
        let matched = fuzzy_identify_view(&view_of(&dump), &db).expect("fuzzy match");
        assert_eq!(matched.model, ModelKind::Resnet50Pt);
        assert!(matched.hits >= 2, "{}", matched.hits);
        let distance = matched.fuzzy_distance.expect("fuzzy path sets distance");
        assert!(distance > 0.0 && distance < 0.5, "{distance}");

        // Nothing survives on a scrubbed board.
        assert_eq!(fuzzy_identify_view(&view_of(&[0u8; 1024]), &db), None);
    }

    #[test]
    fn entropy_offset_locates_the_image_run() {
        // Layout: text page, weights-like noise, then a long filler run (the
        // corrupted image), then zeros.
        let mut dump = Vec::new();
        dump.extend_from_slice(
            &b"vitis_ai_library/models/resnet50_pt "
                .iter()
                .copied()
                .cycle()
                .take(2048)
                .collect::<Vec<_>>(),
        );
        let mut state = 0x1234_5678u32;
        dump.extend((0..4096).map(|_| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (state >> 24) as u8
        }));
        let image_start = dump.len() as u64;
        dump.extend_from_slice(&[0xFFu8; 8192]);
        dump.extend_from_slice(&[0u8; 4096]);

        let offset = entropy_image_offset(&view_of(&dump), 8192).expect("image run found");
        assert_eq!(offset, image_start);
        // A run requirement longer than anything present yields None.
        assert_eq!(entropy_image_offset(&view_of(&dump), dump.len() + 1), None);
    }

    #[test]
    fn repair_heals_erasures_and_clipped_bits_in_a_solid_image() {
        // Ground truth: the corrupted marker image (solid 0xFF).
        let truth = Image::corrupted(16, 16);

        // Exponential-style damage: erase 40% of channel bytes.
        let mut erased = truth.as_bytes().to_vec();
        for (i, byte) in erased.iter_mut().enumerate() {
            if i % 5 < 2 {
                *byte = 0;
            }
        }
        let damaged = Image::reconstruct(16, 16, &erased).unwrap();
        assert!(damaged.pixel_recovery_rate(&truth) < 0.5);
        let repaired = repair_image(&damaged);
        assert_eq!(repaired.pixel_recovery_rate(&truth), 1.0);

        // BitFlip-style damage: clear one hash-picked bit in two thirds of
        // the bytes (decay draws per-cell hashes, so damaged bits are
        // uncorrelated between neighboring pixels).
        let mut clipped = truth.as_bytes().to_vec();
        for (i, byte) in clipped.iter_mut().enumerate() {
            let hash = (i as u32).wrapping_mul(0x9E37_79B9);
            if !hash.is_multiple_of(3) {
                *byte &= !(1 << (hash >> 28 & 7));
            }
        }
        let damaged = Image::reconstruct(16, 16, &clipped).unwrap();
        assert!(damaged.pixel_recovery_rate(&truth) < 0.5);
        let repaired = repair_image(&damaged);
        assert!(repaired.pixel_recovery_rate(&truth) > 0.95);
    }

    #[test]
    fn repair_is_identity_on_undamaged_images() {
        let solid = Image::corrupted(8, 8);
        assert_eq!(repair_image(&solid), solid);
        let sentinel = Image::profiling_sentinel(8, 8);
        assert_eq!(repair_image(&sentinel), sentinel);
    }

    #[test]
    fn repair_never_clears_a_surviving_bit() {
        // Decay-damaged photo: whatever repair does, it must only ever add
        // bits back, never destroy surviving signal.
        let photo = Image::sample_photo(12, 12);
        let mut damaged = photo.as_bytes().to_vec();
        for (i, byte) in damaged.iter_mut().enumerate() {
            if i % 7 == 0 {
                *byte = 0;
            }
        }
        let damaged = Image::reconstruct(12, 12, &damaged).unwrap();
        let repaired = repair_image(&damaged);
        for (d, r) in damaged.as_bytes().iter().zip(repaired.as_bytes()) {
            assert_eq!(d & !r, 0, "repair cleared a surviving bit");
        }
    }
}
