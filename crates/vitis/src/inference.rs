//! A reduced but real forward pass.
//!
//! The attack does not depend on what the model computes, but the victim
//! workload should actually *use* the data placed in its heap (weights and
//! input image) so the simulated runtime exercises the same read/write
//! pattern a real accelerator run does: read image, read weights, write an
//! output tensor.  The network here is a small conv → ReLU → global-average
//! pool → fully-connected classifier over a downsampled input.

// Lint audit: address arithmetic here is bounds-checked against the
// DRAM window before any narrowing cast or direct index; offsets are
// derived from validated window-relative coordinates.
#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use crate::image::Image;
use crate::model::ModelKind;
use crate::weights;

/// Side length of the downsampled working resolution.
const WORKING_DIM: usize = 32;
/// Number of convolution filters.
const CONV_FILTERS: usize = 8;
/// Convolution kernel size.
const KERNEL: usize = 3;

/// Runs the reduced forward pass of `model` over `input`, returning the
/// logits (one per output class).
///
/// The computation is deterministic: identical `(model, input)` pairs give
/// identical logits.
pub fn run_inference(model: ModelKind, input: &Image) -> Vec<f32> {
    let gray = downsample_grayscale(input, WORKING_DIM);
    let (conv_w, fc_region) = weight_regions(model);

    let mut feature_maps = [0f32; CONV_FILTERS];
    let out_dim = WORKING_DIM - KERNEL + 1;
    for (f, map) in feature_maps.iter_mut().enumerate() {
        let mut accum = 0f32;
        for y in 0..out_dim {
            for x in 0..out_dim {
                let mut v = 0f32;
                for ky in 0..KERNEL {
                    for kx in 0..KERNEL {
                        let pixel = gray[(y + ky) * WORKING_DIM + (x + kx)];
                        let weight = conv_w
                            .get(f * KERNEL * KERNEL + ky * KERNEL + kx)
                            .copied()
                            .unwrap_or(0.0);
                        v += pixel * weight;
                    }
                }
                // ReLU then accumulate for global average pooling.
                accum += v.max(0.0);
            }
        }
        *map = accum / (out_dim * out_dim) as f32;
    }

    let mut logits = vec![0f32; model.output_classes()];
    for (c, logit) in logits.iter_mut().enumerate() {
        let mut v = 0f32;
        for (f, feature) in feature_maps.iter().enumerate() {
            v += feature * fc_region[(c * CONV_FILTERS + f) % fc_region.len()];
        }
        *logit = v;
    }
    logits
}

/// The two regions of `model`'s float weight blob the forward pass reads,
/// generated without the rest of the blob: the convolution filters from the
/// front and the classifier from the back.  Both exist for every zoo model
/// because the minimum simulated parameter count exceeds the filters; a blob
/// smaller than the classifier is returned whole, and the classifier wraps
/// around it.
fn weight_regions(model: ModelKind) -> (Vec<f32>, Vec<f32>) {
    let count = model.simulated_param_count() as usize;
    let conv_len = (CONV_FILTERS * KERNEL * KERNEL).min(count);
    let fc_len = count.min(model.output_classes() * CONV_FILTERS);
    (
        weights::float_weights_range(model, 0..conv_len),
        weights::float_weights_range(model, count - fc_len..count),
    )
}

/// Index of the largest logit (the predicted class).
pub fn argmax(logits: &[f32]) -> Option<usize> {
    if logits.is_empty() {
        return None;
    }
    let mut best = 0;
    for (i, v) in logits.iter().enumerate() {
        if *v > logits[best] {
            best = i;
        }
    }
    Some(best)
}

fn downsample_grayscale(image: &Image, dim: usize) -> Vec<f32> {
    let mut out = vec![0f32; dim * dim];
    let (w, h) = (image.width().max(1), image.height().max(1));
    for (i, slot) in out.iter_mut().enumerate() {
        let y = (i / dim) as u32 * h / dim as u32;
        let x = (i % dim) as u32 * w / dim as u32;
        let [r, g, b] = image.pixel(x.min(w - 1), y.min(h - 1));
        *slot = (0.299 * r as f32 + 0.587 * g as f32 + 0.114 * b as f32) / 255.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_regions_match_the_full_blob_selection() {
        for model in ModelKind::all() {
            let w = weights::float_weights(model);
            let (conv_w, fc_region) = weight_regions(model);
            assert_eq!(conv_w, &w[..CONV_FILTERS * KERNEL * KERNEL]);
            // The classifier weight the full-blob pass read for index `i`.
            let classes = model.output_classes();
            let tail = &w[w.len().saturating_sub(classes * CONV_FILTERS)..];
            for i in 0..classes * CONV_FILTERS {
                let expected = tail.get(i).copied().unwrap_or(w[i % w.len()]);
                assert_eq!(fc_region[i % fc_region.len()].to_bits(), expected.to_bits());
            }
        }
    }

    #[test]
    fn inference_is_deterministic() {
        let img = Image::sample_photo(64, 64);
        let a = run_inference(ModelKind::Resnet50Pt, &img);
        let b = run_inference(ModelKind::Resnet50Pt, &img);
        assert_eq!(a, b);
        assert_eq!(a.len(), 1000);
    }

    #[test]
    fn different_inputs_give_different_logits() {
        let a = run_inference(ModelKind::Resnet50Pt, &Image::sample_photo(64, 64));
        let b = run_inference(ModelKind::Resnet50Pt, &Image::corrupted(64, 64));
        assert_ne!(a, b);
    }

    #[test]
    fn different_models_give_different_logits() {
        let img = Image::sample_photo(64, 64);
        let a = run_inference(ModelKind::Resnet50Pt, &img);
        let b = run_inference(ModelKind::DenseNet161, &img);
        assert_ne!(a, b);
    }

    #[test]
    fn output_length_matches_model_classes() {
        let img = Image::sample_photo(32, 32);
        for model in ModelKind::all() {
            let logits = run_inference(model, &img);
            assert_eq!(logits.len(), model.output_classes());
            assert!(logits.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn argmax_behaviour() {
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[1.0]), Some(0));
        assert_eq!(argmax(&[0.5, 2.0, -1.0]), Some(1));
        // Ties resolve to the first maximum.
        assert_eq!(argmax(&[3.0, 3.0]), Some(0));
    }

    #[test]
    fn tiny_images_do_not_panic() {
        let img = Image::solid(1, 1, [10, 20, 30]);
        let logits = run_inference(ModelKind::SqueezeNet, &img);
        assert_eq!(logits.len(), 1000);
    }
}
