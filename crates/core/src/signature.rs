//! Model signature database.
//!
//! The adversary model (paper §II) assumes the attacker can profile the
//! publicly available Vitis AI library offline and therefore knows what byte
//! patterns each model leaves in memory — most usefully its name and library
//! path fragments.  [`SignatureDb`] holds those patterns;
//! [`SignatureDb::match_view`] scores scraped bytes against every model.

// Lint audit: indexes and slice bounds here are established by the
// surrounding length checks / loop invariants before use.
#![allow(clippy::indexing_slicing)]

use serde::{Deserialize, Serialize};
use vitis_ai_sim::ModelKind;
use zynq_dram::ScrapeView;

/// Signature of one model: byte patterns whose presence indicates the model.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelSignature {
    /// The model this signature identifies.
    pub model: ModelKind,
    /// Patterns searched for in the dump (primary name plus path fragments).
    pub patterns: Vec<String>,
}

/// A scored match of a dump against one model's signature.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelMatch {
    /// The matched model.
    pub model: ModelKind,
    /// Number of distinct patterns found.
    pub hits: usize,
    /// Total number of patterns in the signature.
    pub total_patterns: usize,
    /// Mean fuzzy-match distance (fraction of pattern bits missing from the
    /// dump, 0.0 = exact) when the match came from the decay-tolerant scan
    /// ([`crate::analysis::reconstruct::fuzzy_identify_view`]); `None` on the
    /// exact-matching path.
    pub fuzzy_distance: Option<f64>,
}

impl ModelMatch {
    /// Fraction of the signature's patterns that were found (0.0–1.0).
    pub fn confidence(&self) -> f64 {
        if self.total_patterns == 0 {
            return 0.0;
        }
        self.hits as f64 / self.total_patterns as f64
    }
}

/// Database of model signatures.
///
/// # Example
///
/// ```
/// use msa_core::SignatureDb;
/// use vitis_ai_sim::ModelKind;
///
/// let db = SignatureDb::standard();
/// assert!(db.signature(ModelKind::Resnet50Pt).is_some());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SignatureDb {
    signatures: Vec<ModelSignature>,
}

impl SignatureDb {
    /// Builds the standard database covering the whole model zoo, using the
    /// patterns an attacker learns from the public library: the model name,
    /// its install path and its framework export path.
    pub fn standard() -> Self {
        let signatures = ModelKind::all()
            .into_iter()
            .map(|model| ModelSignature {
                model,
                patterns: vec![
                    model.name().to_string(),
                    format!("vitis_ai_library/models/{}", model.name()),
                    format!("torchvision/{}", model.name()),
                ],
            })
            .collect();
        SignatureDb { signatures }
    }

    /// Builds a database from explicit signatures.
    pub fn from_signatures(signatures: Vec<ModelSignature>) -> Self {
        SignatureDb { signatures }
    }

    /// All signatures.
    pub fn signatures(&self) -> &[ModelSignature] {
        &self.signatures
    }

    /// The signature of a specific model, if present.
    pub fn signature(&self, model: ModelKind) -> Option<&ModelSignature> {
        self.signatures.iter().find(|s| s.model == model)
    }

    /// Scores scraped bytes against every signature, most-confident first.
    /// The patterns are searched segment-wise without materializing the
    /// view.
    ///
    /// Only models with at least one hit are returned.
    pub fn match_view(&self, view: &ScrapeView<'_>) -> Vec<ModelMatch> {
        let mut matches: Vec<ModelMatch> = self
            .signatures
            .iter()
            .map(|sig| {
                let hits = sig
                    .patterns
                    .iter()
                    .filter(|pattern| view.contains_seq(pattern.as_bytes()))
                    .count();
                ModelMatch {
                    model: sig.model,
                    hits,
                    total_patterns: sig.patterns.len(),
                    fuzzy_distance: None,
                }
            })
            .filter(|m| m.hits > 0)
            .collect();
        matches.sort_by(|a, b| {
            b.confidence()
                .partial_cmp(&a.confidence())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| b.hits.cmp(&a.hits))
        });
        matches
    }

    /// The single best match, if any signature hit at all.
    pub fn best_match_view(&self, view: &ScrapeView<'_>) -> Option<ModelMatch> {
        self.match_view(view).into_iter().next()
    }
}

impl Default for SignatureDb {
    fn default() -> Self {
        SignatureDb::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dump::MemoryDump;
    use zynq_dram::PhysAddr;
    use zynq_mmu::VirtAddr;

    fn dump_with(content: &[u8]) -> MemoryDump {
        MemoryDump::from_contiguous(VirtAddr::new(0), PhysAddr::new(0), content.to_vec())
    }

    #[test]
    fn standard_db_covers_the_zoo() {
        let db = SignatureDb::standard();
        assert_eq!(db.signatures().len(), ModelKind::all().len());
        for model in ModelKind::all() {
            let sig = db.signature(model).unwrap();
            assert!(sig.patterns.iter().any(|p| p == model.name()));
        }
        assert_eq!(SignatureDb::default(), db);
    }

    #[test]
    fn match_scores_hits_and_sorts_by_confidence() {
        let db = SignatureDb::standard();
        let dump = dump_with(
            b"...vitis_ai_library/models/resnet50_pt/resnet50_pt.xmodel...torchvision/resnet50_pt...",
        );
        let matches = db.match_view(&dump.as_view());
        assert!(!matches.is_empty());
        assert_eq!(matches[0].model, ModelKind::Resnet50Pt);
        assert_eq!(matches[0].hits, 3);
        assert_eq!(matches[0].confidence(), 1.0);
        assert_eq!(
            db.best_match_view(&dump.as_view()).unwrap().model,
            ModelKind::Resnet50Pt
        );
    }

    #[test]
    fn unrelated_dump_matches_nothing() {
        let db = SignatureDb::standard();
        let dump = dump_with(&[0u8; 512]);
        assert!(db.match_view(&dump.as_view()).is_empty());
        assert!(db.best_match_view(&dump.as_view()).is_none());
    }

    #[test]
    fn partial_hits_have_lower_confidence() {
        let db = SignatureDb::standard();
        // Only the bare model name, not the paths.
        let dump = dump_with(b"....squeezenet....");
        let best = db.best_match_view(&dump.as_view()).unwrap();
        assert_eq!(best.model, ModelKind::SqueezeNet);
        assert_eq!(best.hits, 1);
        assert!(best.confidence() < 1.0);
        assert!(best.confidence() > 0.0);
    }

    #[test]
    fn ambiguous_dump_prefers_more_complete_signature() {
        let db = SignatureDb::standard();
        let dump = dump_with(
            b"vitis_ai_library/models/yolov3/yolov3.xmodel ... mobilenet_v2 mentioned once",
        );
        let matches = db.match_view(&dump.as_view());
        assert_eq!(matches[0].model, ModelKind::YoloV3);
        assert!(matches.iter().any(|m| m.model == ModelKind::MobileNetV2));
    }

    #[test]
    fn custom_database_and_edge_cases() {
        let db = SignatureDb::from_signatures(vec![ModelSignature {
            model: ModelKind::Vgg16,
            patterns: vec![],
        }]);
        let dump = dump_with(b"vgg16");
        // A signature with no patterns can never match.
        assert!(db.match_view(&dump.as_view()).is_empty());
        assert_eq!(
            ModelMatch {
                model: ModelKind::Vgg16,
                hits: 0,
                total_patterns: 0,
                fuzzy_distance: None
            }
            .confidence(),
            0.0
        );
        // Needle longer than the dump is handled.
        let tiny = dump_with(b"x");
        assert!(SignatureDb::standard()
            .match_view(&tiny.as_view())
            .is_empty());
    }
}
