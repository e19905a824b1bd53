//! # msa-core — the Memory Scraping Attack on Xilinx FPGAs
//!
//! This crate implements the paper's contribution: an end-to-end memory
//! scraping attack (MSA) that recovers private data — the identity of the ML
//! model and its input image — from the local DRAM of a terminated process on
//! a (simulated) Zynq UltraScale+ board running PetaLinux.
//!
//! The attack follows the paper's four steps (§III):
//!
//! 1. **Poll for the victim pid** — [`attack::AttackPipeline::poll_for_victim`]
//!    watches the process list through the debugger channel.
//! 2. **Fetch virtual addresses and convert them to physical addresses** —
//!    [`translate::capture_heap_translation`] reads `/proc/<pid>/maps`, takes
//!    the `[heap]` range and converts it with `/proc/<pid>/pagemap`.
//! 3. **Extract data from physical addresses** — after the victim terminates,
//!    [`scrape::scrape_heap`] reads the physical locations with `devmem`-style
//!    accesses, producing a [`dump::MemoryDump`].
//! 4. **Analyse the extracted data** — [`analysis::strings`] identifies the
//!    model from library-path strings ([`signature::SignatureDb`]),
//!    [`analysis::marker`] locates the corrupted-image marker, and
//!    [`analysis::image`] reconstructs the input image at the offset learned
//!    by offline [`profile::Profiler`] runs.
//!
//! Beyond the attack itself, [`defense`] evaluates it against every
//! sanitization / isolation / layout-randomization policy the substrate
//! crates provide, [`detect`] gives the defender a monitor that recognizes
//! the attack's access pattern in the debugger audit log, and [`scenario`]
//! packages a full victim-plus-attacker run for the examples, integration
//! tests and benchmarks.  [`campaign`] scales all of that to fleet-sized
//! evaluation: a [`campaign::CampaignSpec`] declares a scenario matrix over
//! boards, models, inputs, defenses, scrape modes and victim schedules, and
//! a scoped worker pool runs the cells in parallel with deterministic,
//! worker-count-independent results — the substrate every `defense` sweep
//! and the `experiments` binary now run on.
//!
//! # Example
//!
//! ```
//! use msa_core::scenario::AttackScenario;
//! use petalinux_sim::BoardConfig;
//! use vitis_ai_sim::ModelKind;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let outcome = AttackScenario::new(BoardConfig::tiny_for_tests(), ModelKind::Resnet50Pt)
//!     .with_corrupted_input()
//!     .execute()?;
//! assert_eq!(outcome.identified_model(), Some(ModelKind::Resnet50Pt));
//! assert!(outcome.pixel_recovery_rate() > 0.95);
//! # Ok(())
//! # }
//! ```

pub mod analysis;
pub mod attack;
pub mod campaign;
pub mod defense;
pub mod detect;
pub mod dump;
pub mod error;
pub mod hexdump;
pub mod metrics;
pub mod profile;
pub mod report;
pub mod scenario;
pub mod scrape;
pub mod signature;
#[cfg(test)]
mod testing;
pub mod translate;

pub use attack::{AttackConfig, AttackPipeline, ScrapeMode};
pub use campaign::{
    Adversary, CampaignCell, CampaignReport, CampaignSpec, CampaignSummary, CellRecord, InputKind,
    StreamConfig,
};
pub use dump::{HeapView, MemoryDump};
pub use error::AttackError;
pub use metrics::{AttackOutcome, StepTimings};
pub use profile::{ModelProfile, ProfileDatabase, Profiler};
pub use scenario::{
    AttackScenario, ResidueLifetime, ScenarioMetrics, ScenarioOutcome, VictimSchedule,
};
pub use signature::{ModelMatch, SignatureDb};
pub use translate::HeapTranslation;
