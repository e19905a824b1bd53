//! Deterministic synthetic model weights.
//!
//! The attack does not interpret weight values — it only needs a weight blob
//! of the right (relative) size sitting in the victim's heap.  Weights are
//! generated from a xorshift stream seeded by the model name, so every run of
//! a given model places bit-identical weights at the same heap offsets, which
//! is the determinism the paper's offline profiling exploits.

// Lint audit: address arithmetic here is bounds-checked against the
// DRAM window before any narrowing cast or direct index; offsets are
// derived from validated window-relative coordinates.
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use std::ops::Range;

use crate::model::ModelKind;

/// Quantized (int8) weights for `model`, `simulated_param_count()` bytes long.
pub fn quantized_weights(model: ModelKind) -> Vec<u8> {
    let mut state = seed_for(model);
    let count = model.simulated_param_count() as usize;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        state = xorshift(state);
        out.push((state & 0xFF) as u8);
    }
    out
}

/// The first `len` bytes of [`quantized_weights`] (the whole blob when it is
/// shorter), generated without producing the rest of the blob.
pub fn quantized_weights_prefix(model: ModelKind, len: usize) -> Vec<u8> {
    let count = model.simulated_param_count() as usize;
    states(model)
        .take(len.min(count))
        .map(|state| (state & 0xFF) as u8)
        .collect()
}

/// Floating-point weights for `model`, scaled to roughly unit variance.
pub fn float_weights(model: ModelKind) -> Vec<f32> {
    let mut state = seed_for(model);
    let count = model.simulated_param_count() as usize;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        state = xorshift(state);
        out.push(unit_float(state));
    }
    out
}

/// `float_weights(model)[range]`, generated without materialising the
/// weights outside `range`.
///
/// # Panics
///
/// Panics if `range` reaches past `simulated_param_count()`.
pub fn float_weights_range(model: ModelKind, range: Range<usize>) -> Vec<f32> {
    assert!(
        range.end <= model.simulated_param_count() as usize,
        "weight range out of bounds"
    );
    states(model)
        .skip(range.start)
        .take(range.len())
        .map(unit_float)
        .collect()
}

/// The model's xorshift state sequence; weight `i` derives from item `i`.
fn states(model: ModelKind) -> impl Iterator<Item = u64> {
    std::iter::successors(Some(xorshift(seed_for(model))), |&state| {
        Some(xorshift(state))
    })
}

/// Maps a xorshift state to a weight in [-1, 1).
fn unit_float(state: u64) -> f32 {
    (((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0) as f32
}

/// Seed derived from the model's name (FNV-1a).
pub fn seed_for(model: ModelKind) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in model.name().bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    if hash == 0 {
        1
    } else {
        hash
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_are_deterministic_per_model() {
        assert_eq!(
            quantized_weights(ModelKind::Resnet50Pt),
            quantized_weights(ModelKind::Resnet50Pt)
        );
        assert_eq!(
            float_weights(ModelKind::SqueezeNet),
            float_weights(ModelKind::SqueezeNet)
        );
    }

    #[test]
    fn prefixes_match_the_full_blob() {
        for model in ModelKind::all() {
            let full = quantized_weights(model);
            for len in [0, 1, 32, full.len() / 2 + 1, full.len()] {
                assert_eq!(quantized_weights_prefix(model, len), &full[..len]);
            }
            assert_eq!(quantized_weights_prefix(model, full.len() + 5), full);
        }
    }

    #[test]
    fn float_ranges_match_the_full_blob() {
        for model in ModelKind::all() {
            let full = float_weights(model);
            let n = full.len();
            for range in [0..0, 0..72, 5..6, n / 2..n, n - 8000.min(n)..n, 0..n] {
                assert_eq!(float_weights_range(model, range.clone()), &full[range]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn float_range_past_the_blob_panics() {
        let n = ModelKind::SqueezeNet.simulated_param_count() as usize;
        let _ = float_weights_range(ModelKind::SqueezeNet, 0..n + 1);
    }

    #[test]
    fn different_models_have_different_weights_and_sizes() {
        let resnet = quantized_weights(ModelKind::Resnet50Pt);
        let squeeze = quantized_weights(ModelKind::SqueezeNet);
        assert_ne!(resnet.len(), squeeze.len());
        assert_ne!(&resnet[..64], &squeeze[..64]);
        assert_ne!(
            seed_for(ModelKind::Resnet50Pt),
            seed_for(ModelKind::SqueezeNet)
        );
    }

    #[test]
    fn sizes_match_simulated_param_counts() {
        for model in ModelKind::all() {
            assert_eq!(
                quantized_weights(model).len() as u64,
                model.simulated_param_count()
            );
            assert_eq!(
                float_weights(model).len() as u64,
                model.simulated_param_count()
            );
        }
    }

    #[test]
    fn float_weights_are_bounded_and_not_constant() {
        let w = float_weights(ModelKind::Resnet50Pt);
        assert!(w.iter().all(|v| (-1.0..1.0).contains(v)));
        assert!(w.iter().any(|v| *v != w[0]));
    }
}
