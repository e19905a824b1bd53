//! Model signature database.
//!
//! The adversary model (paper §II) assumes the attacker can profile the
//! publicly available Vitis AI library offline and therefore knows what byte
//! patterns each model leaves in memory — most usefully its name and library
//! path fragments.  [`SignatureDb`] holds those patterns;
//! [`SignatureDb::match_view`] scores scraped bytes against every model in
//! one pass of an Aho–Corasick automaton built with the database, and the
//! decay-tolerant fuzzy match scans every pattern at once with the Shift-And
//! tables built next to it.

// Lint audit: indexes and slice bounds here are established by the
// surrounding length checks / loop invariants before use.
#![allow(clippy::indexing_slicing)]

mod automaton;
mod shift_and;

use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};
use vitis_ai_sim::ModelKind;
use zynq_dram::ScrapeView;

use automaton::Automaton;
pub(crate) use shift_and::ShiftAnd;

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
///
/// Equality and the serialised form cover the signatures alone: the
/// matchers are derived from them, and deserialising rebuilds them through
/// [`SignatureDb::from_signatures`].
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(from = "SignatureList", into = "SignatureList")]
pub struct SignatureDb {
    signatures: Vec<ModelSignature>,
    matchers: Arc<Matchers>,
}

/// The scanners built from a database's patterns, whose ids are their
/// positions in signature order.
#[derive(Debug)]
struct Matchers {
    /// Exact matching ([`SignatureDb::match_view`]).
    automaton: Automaton,
    /// Fuzzy matching
    /// ([`crate::analysis::reconstruct::fuzzy_identify_view`]).
    shift_and: ShiftAnd,
}

impl PartialEq for SignatureDb {
    fn eq(&self, other: &Self) -> bool {
        self.signatures == other.signatures
    }
}

impl Eq for SignatureDb {}

/// The serialised form of a [`SignatureDb`].
#[derive(Clone, Serialize, Deserialize)]
struct SignatureList {
    signatures: Vec<ModelSignature>,
}

impl From<SignatureList> for SignatureDb {
    fn from(list: SignatureList) -> Self {
        SignatureDb::from_signatures(list.signatures)
    }
}

impl From<SignatureDb> for SignatureList {
    fn from(db: SignatureDb) -> Self {
        SignatureList {
            signatures: db.signatures,
        }
    }
}

impl SignatureDb {
    /// Builds the standard database covering the whole model zoo, using the
    /// patterns an attacker learns from the public library: the model name,
    /// its install path and its framework export path.
    ///
    /// Every attack pipeline starts from this database, so it is built once
    /// per process and each call returns a copy that shares its matchers.
    pub fn standard() -> Self {
        static STANDARD: OnceLock<SignatureDb> = OnceLock::new();
        STANDARD
            .get_or_init(|| {
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
                SignatureDb::from_signatures(signatures)
            })
            .clone()
    }

    /// Builds a database from explicit signatures.
    pub fn from_signatures(signatures: Vec<ModelSignature>) -> Self {
        let patterns = signatures
            .iter()
            .flat_map(|sig| sig.patterns.iter().map(String::as_bytes));
        let matchers = Arc::new(Matchers {
            automaton: Automaton::new(patterns.clone()),
            shift_and: ShiftAnd::new(patterns),
        });
        SignatureDb {
            signatures,
            matchers,
        }
    }

    /// The Shift-And tables over every pattern, in signature order.
    pub(crate) fn shift_and(&self) -> &ShiftAnd {
        &self.matchers.shift_and
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
    /// One pass over the view's segments finds every pattern of every
    /// signature, without materializing the view.
    ///
    /// Only models with at least one hit are returned.
    pub fn match_view(&self, view: &ScrapeView<'_>) -> Vec<ModelMatch> {
        let mut found = self.matchers.automaton.found(view).into_iter();
        let mut matches: Vec<ModelMatch> = self
            .signatures
            .iter()
            .map(|sig| {
                let hits = found
                    .by_ref()
                    .take(sig.patterns.len())
                    .filter(|&hit| hit)
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
    use crate::testing::segmented_view;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use zynq_dram::PhysAddr;
    use zynq_mmu::VirtAddr;

    fn dump_with(content: &[u8]) -> MemoryDump {
        MemoryDump::from_contiguous(VirtAddr::new(0), PhysAddr::new(0), content.to_vec())
    }

    /// The per-pattern search the automaton replaced: one
    /// [`ScrapeView::find`] per pattern, then the same ranking.
    fn per_pattern_oracle(db: &SignatureDb, view: &ScrapeView<'_>) -> Vec<ModelMatch> {
        let mut matches: Vec<ModelMatch> = db
            .signatures()
            .iter()
            .map(|sig| ModelMatch {
                model: sig.model,
                hits: sig
                    .patterns
                    .iter()
                    .filter(|pattern| view.find(pattern.as_bytes()).is_some())
                    .count(),
                total_patterns: sig.patterns.len(),
                fuzzy_distance: None,
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

    /// Bytes of the random views and patterns: a small alphabet, so that
    /// patterns recur, nest and overlap, and zero, so that patterns can run
    /// into `push_zeros` gaps.
    const ALPHABET: [u8; 4] = [b'a', b'b', b'c', 0];

    proptest! {
        #[test]
        fn automaton_matches_the_per_pattern_oracle(
            unit_shift in 2u32..7,
            head in 0usize..70,
            filler in vec(0usize..4, 0..300),
            gaps in vec(0u8..6, 0..80),
            raw_patterns in vec(vec(0usize..4, 0..10), 1..8),
            cuts in vec(any::<usize>(), 3),
            sig_sizes in vec(0usize..5, 1..7),
            picks in vec(any::<usize>(), 24),
            plants in vec(any::<usize>(), 0..6),
        ) {
            let unit = 1usize << unit_shift;
            let mut data: Vec<u8> = filler.iter().map(|&i| ALPHABET[i]).collect();

            // The pool holds the random patterns, a suffix and a prefix of
            // each (nested and suffix-overlapping), and slices of the data
            // that span several units; one is longer than the whole view.
            let mut pool: Vec<Vec<u8>> = Vec::new();
            for raw in &raw_patterns {
                let pattern: Vec<u8> = raw.iter().map(|&i| ALPHABET[i]).collect();
                if pattern.len() >= 2 {
                    pool.push(pattern[1..].to_vec());
                    pool.push(pattern[..pattern.len() - 1].to_vec());
                }
                pool.push(pattern);
            }
            for &cut in &cuts {
                let start = cut % (data.len() + 1);
                let len = (cut >> 20) % (3 * unit + 2);
                pool.push(data[start..(start + len).min(data.len())].to_vec());
            }
            let mut longer_than_view = data.clone();
            longer_than_view.push(b'a');
            pool.push(longer_than_view);

            // Plant pool patterns so they straddle a unit seam.
            for &plant in &plants {
                let needle = pool[plant % pool.len()].clone();
                if needle.is_empty() || data.is_empty() {
                    continue;
                }
                let seam = head + unit * ((plant >> 16) % (data.len() / unit + 1));
                let start = seam.saturating_sub((plant >> 24) % needle.len()).min(data.len());
                let end = (start + needle.len()).min(data.len());
                data[start..end].copy_from_slice(&needle[..end - start]);
            }

            // Signatures draw from the pool with replacement, so duplicate
            // patterns occur within and across signatures.
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

            let gaps: Vec<bool> = gaps.iter().map(|&g| g == 0).collect();
            let view = segmented_view(&data, head, unit, &gaps);
            prop_assert_eq!(db.match_view(&view), per_pattern_oracle(&db, &view));
        }
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
