//! Bit-parallel Shift-And scan over every pattern of a [`SignatureDb`]
//! (Baeza-Yates & Gonnet, "A new approach to text searching", CACM 1992),
//! with the decay-aware byte test of the fuzzy match.
//!
//! Every pattern byte owns one bit of a state vector: the patterns are laid
//! end to end and packed into `u64` words.  After byte `i`, the bit of
//! position `k` of a pattern is set iff bytes `i - k ..= i` are consistent
//! with the pattern's first `k + 1` bytes, where a byte `w` is consistent
//! with a pattern byte `p` when `w & !p == 0` (decay only clears bits).  One
//! shift (carrying between words), one OR of the start bits and one AND
//! with the byte's mask advance every pattern at once, so the whole
//! database costs one pass, and a set end bit marks a window that is
//! consistent throughout.
//!
//! A consistent window is a candidate only when it also holds at least
//! [`MIN_EXACT_BYTES`] non-zero bytes, which every window the fuzzy score
//! accepts does.  The scan keeps the positions of the last
//! [`MIN_EXACT_BYTES`] non-zero bytes; the distance back to the oldest of
//! them selects a row of end bits of the patterns at least that long.
//!
//! [`SignatureDb`]: super::SignatureDb

// Lint audit: mask and gate rows are sliced at a byte value or a distance
// no larger than the longest pattern times the word count the builder
// sized them to; every set end bit is below the packed pattern bits, which
// `ids` covers.
#![allow(clippy::indexing_slicing)]

use std::fmt;

use crate::analysis::reconstruct::MIN_EXACT_BYTES;

/// Packed Shift-And tables over a list of patterns.
pub(crate) struct ShiftAnd {
    /// `u64` words per state vector.
    words: usize,
    /// Row `w`: the bits of every pattern position byte `w` is consistent
    /// with.
    masks: Vec<u64>,
    /// The first position of every pattern.
    starts: Vec<u64>,
    /// Row `d`: the end bits of the patterns at least `d` bytes long, for
    /// `d` up to the longest pattern.
    min_len: Vec<u64>,
    /// Pattern id per bit position; read only at end bits.
    ids: Vec<usize>,
    /// Length of the longest pattern with a slot.
    longest: usize,
}

impl ShiftAnd {
    /// Builds the tables for `patterns`, whose ids are their positions.
    /// Patterns without a set bit (empty or all NUL) keep their id but get
    /// no slot: the fuzzy score has no evidence to weigh in them.
    pub(crate) fn new<'p>(patterns: impl Iterator<Item = &'p [u8]> + Clone) -> Self {
        let scored = |pattern: &&[u8]| pattern.iter().any(|&byte| byte != 0);
        let bits: usize = patterns.clone().filter(scored).map(<[u8]>::len).sum();
        let words = bits.div_ceil(64);
        let longest = patterns
            .clone()
            .filter(scored)
            .map(<[u8]>::len)
            .max()
            .unwrap_or(0);
        let mut tables = ShiftAnd {
            words,
            masks: vec![0; 256 * words],
            starts: vec![0; words],
            min_len: vec![0; (longest + 1) * words],
            ids: vec![0; bits],
            longest,
        };
        let mut bit = 0;
        for (id, pattern) in patterns.enumerate().filter(|(_, p)| scored(p)) {
            tables.starts[bit / 64] |= 1 << (bit % 64);
            for (k, &byte) in pattern.iter().enumerate() {
                let (word, flag) = ((bit + k) / 64, 1u64 << ((bit + k) % 64));
                // The consistent bytes are exactly the subsets of `byte`.
                let mut subset = byte;
                loop {
                    tables.masks[usize::from(subset) * words + word] |= flag;
                    if subset == 0 {
                        break;
                    }
                    subset = (subset - 1) & byte;
                }
            }
            let end = bit + pattern.len() - 1;
            tables.ids[end] = id;
            for row in tables
                .min_len
                .chunks_exact_mut(words)
                .take(pattern.len() + 1)
            {
                row[end / 64] |= 1 << (end % 64);
            }
            bit += pattern.len();
        }
        tables
    }

    /// Scans `bytes` once and calls `on_candidate(id, end)` for every
    /// window `bytes[end - len..end]` that is consistent with pattern `id`
    /// of length `len` and holds at least [`MIN_EXACT_BYTES`] non-zero
    /// bytes.  Windows are reported in order of `end`.
    pub(crate) fn scan(&self, bytes: &[u8], mut on_candidate: impl FnMut(usize, usize)) {
        let words = self.words;
        if words == 0 {
            return;
        }
        let mut state = vec![0u64; words];
        // One past the positions of the last non-zero bytes, newest first;
        // 0 while fewer have been seen.
        let mut recent = [0usize; MIN_EXACT_BYTES];
        for (i, &byte) in bytes.iter().enumerate() {
            let mask = &self.masks[usize::from(byte) * words..][..words];
            let mut carry = 0;
            for ((word, &consistent), &start) in state.iter_mut().zip(mask).zip(&self.starts) {
                let shifted = *word << 1 | carry | start;
                carry = *word >> 63;
                *word = shifted & consistent;
            }
            if byte != 0 {
                recent.rotate_right(1);
                recent[0] = i + 1;
            }
            // The shortest window ending here that reaches back to the
            // oldest of the last MIN_EXACT_BYTES non-zero bytes.  Before
            // that many were seen it exceeds `i + 1`, so no end bit can be
            // set in its row.
            let reach = i + 2 - recent[MIN_EXACT_BYTES - 1];
            if reach > self.longest {
                continue;
            }
            let gate = &self.min_len[reach * words..][..words];
            for (w, (&word, &long_enough)) in state.iter().zip(gate).enumerate() {
                let mut hits = word & long_enough;
                while hits != 0 {
                    on_candidate(self.ids[w * 64 + hits.trailing_zeros() as usize], i + 1);
                    hits &= hits - 1;
                }
            }
        }
    }
}

impl fmt::Debug for ShiftAnd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShiftAnd")
            .field("words", &self.words)
            .field("longest", &self.longest)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Every window the scan must report, by brute force: consistent
    /// throughout, with at least MIN_EXACT_BYTES non-zero bytes, for every
    /// pattern with a set bit.
    fn candidates_oracle(patterns: &[Vec<u8>], bytes: &[u8]) -> Vec<(usize, usize)> {
        let mut found = Vec::new();
        for end in 1..=bytes.len() {
            for (id, pattern) in patterns.iter().enumerate() {
                if pattern.is_empty() || pattern.iter().all(|&b| b == 0) || pattern.len() > end {
                    continue;
                }
                let window = &bytes[end - pattern.len()..end];
                let consistent = window.iter().zip(pattern).all(|(w, p)| w & !p == 0);
                let nonzero = window.iter().filter(|&&w| w != 0).count();
                if consistent && nonzero >= MIN_EXACT_BYTES {
                    found.push((end, id));
                }
            }
        }
        found.sort_unstable();
        found
    }

    fn scanned(patterns: &[Vec<u8>], bytes: &[u8]) -> Vec<(usize, usize)> {
        let tables = ShiftAnd::new(patterns.iter().map(Vec::as_slice));
        let mut found = Vec::new();
        tables.scan(bytes, |id, end| found.push((end, id)));
        found.sort_unstable();
        found
    }

    /// A small alphabet of bit patterns, so that windows are often
    /// consistent without being equal, plus zero for erased bytes.
    const ALPHABET: [u8; 5] = [0, 0x01, 0x03, 0x41, 0xFF];

    proptest! {
        #[test]
        fn scan_reports_exactly_the_gated_consistent_windows(
            lens in vec(0usize..80, 1..9),
            raw in vec(0usize..5, 400),
            data in vec(0usize..5, 0..300),
            zero_runs in vec(any::<usize>(), 0..4),
            copies in vec(any::<usize>(), 0..4),
        ) {
            // Pattern lengths span 0 to 79, so the packed bits cross word
            // boundaries and single patterns run over 64 bytes.
            let mut source = raw.iter().cycle();
            let mut patterns: Vec<Vec<u8>> = lens
                .iter()
                .map(|&len| source.by_ref().take(len).map(|&i| ALPHABET[i]).collect())
                .collect();
            patterns.push(vec![0; 6]);
            patterns.push(patterns[0].clone());
            let mut bytes: Vec<u8> = data.iter().map(|&i| ALPHABET[i]).collect();
            for &run in &zero_runs {
                if !bytes.is_empty() {
                    let start = run % bytes.len();
                    let end = (start + (run >> 32) % 40).min(bytes.len());
                    bytes[start..end].fill(0);
                }
            }
            // Plant patterns, including at the first and last byte.
            for (n, &copy) in copies.iter().enumerate() {
                let pattern = &patterns[copy % patterns.len()];
                if pattern.len() <= bytes.len() {
                    let start = match n {
                        0 => 0,
                        1 => bytes.len() - pattern.len(),
                        _ => (copy >> 16) % (bytes.len() - pattern.len() + 1),
                    };
                    bytes[start..start + pattern.len()].copy_from_slice(pattern);
                }
            }
            prop_assert_eq!(scanned(&patterns, &bytes), candidates_oracle(&patterns, &bytes));
        }
    }

    #[test]
    fn patterns_straddling_a_word_boundary_are_found() {
        // 60 + 10 bits: the second pattern occupies bits 60..70.
        let first = vec![b'x'; 60];
        let second = b"abcdefghij".to_vec();
        let patterns = vec![first, second.clone()];
        let mut bytes = vec![0u8; 100];
        bytes[0..10].copy_from_slice(&second);
        bytes[90..100].copy_from_slice(&second);
        assert_eq!(scanned(&patterns, &bytes), vec![(10, 1), (100, 1)]);
        assert_eq!(
            scanned(&patterns, &bytes),
            candidates_oracle(&patterns, &bytes)
        );
    }

    #[test]
    fn windows_with_too_few_non_zero_bytes_are_not_candidates() {
        // "ab\0\0c" is consistent with "abxyc" but holds only three
        // non-zero bytes; the full pattern holds five.
        let patterns = vec![b"abxyc".to_vec()];
        assert!(scanned(&patterns, b"ab\0\0c").is_empty());
        assert_eq!(scanned(&patterns, b"abx\0c"), vec![(5, 0)]);
        // A short pattern next to a long one: the long one's reach must not
        // let the short one through.
        let patterns = vec![b"abcd".to_vec(), vec![b'z'; 40]];
        assert!(scanned(&patterns, b"wxyzab\0d").is_empty());
        assert_eq!(scanned(&patterns, b"abcd"), vec![(4, 0)]);
    }

    #[test]
    fn degenerate_databases_scan_nothing() {
        assert!(scanned(&[], b"abcdef").is_empty());
        assert!(scanned(&[vec![], vec![0; 4]], b"abcdef").is_empty());
        assert!(scanned(&[b"abcdefgh".to_vec()], b"abcd").is_empty());
        assert!(scanned(&[b"abcd".to_vec()], b"").is_empty());
    }
}
