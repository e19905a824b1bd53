//! The benchmark's three fleet workloads: real [`CampaignSpec`] matrices of
//! 192 cells each on the tiny board, plus the per-cell correctness rule and
//! the pinned default-seed summary of each.

use msa_core::campaign::{CampaignSpec, CellRecord, InputKind};
use msa_core::scenario::VictimSchedule;
use msa_core::{ProfileDatabase, Profiler, ScrapeMode};
use petalinux_sim::{BoardConfig, IsolationPolicy};
use vitis_ai_sim::ModelKind;
use zynq_dram::{RemanenceModel, SanitizePolicy};

/// The seed the pinned summaries below were recorded with.
pub const DEFAULT_SEED: u64 = 2024;

/// Cells in one pass over any workload's full matrix.
pub const CELLS_PER_PASS: usize = 192;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The shipped CI/ROADMAP matrix: perfect remanence, borrowed-view
    /// scrape, half the cells blocked by the confined policy.
    TinySweep,
    /// Residue recovery on a swapping board under analog decay: the
    /// owned-dump path (decayed reads, snapshot fusion, swap overlay, fuzzy
    /// matching and repair).
    DecaySwap,
    /// Every sanitize policy behind the confined debugger: every cell is
    /// blocked at the first debugger read, so analysis does no work.
    ConfinedFleet,
}

/// Which cells a workload's headline per-cell latency is taken over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellClass {
    /// Cells whose attack ran to completion.
    Completed,
    /// Cells the isolation policy blocked.
    Blocked,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::TinySweep,
        Workload::DecaySwap,
        Workload::ConfinedFleet,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TinySweep => "tiny-sweep",
            Workload::DecaySwap => "decay-swap",
            Workload::ConfinedFleet => "confined-fleet",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The matrix's only board, before any axis override.
    pub fn board(self) -> BoardConfig {
        match self {
            Workload::DecaySwap => BoardConfig::tiny_for_tests().with_swap(50),
            Workload::TinySweep | Workload::ConfinedFleet => BoardConfig::tiny_for_tests(),
        }
    }

    /// The profile database the engine builds for the board before a
    /// stream: `Profiler::profile_all` on its permissive variant.
    pub fn profiles(self) -> ProfileDatabase {
        Profiler::new(self.board().with_isolation(IsolationPolicy::Permissive)).profile_all()
    }

    /// The full 192-cell matrix, seeded with `seed`.
    pub fn spec(self, seed: u64) -> CampaignSpec {
        self.spec_with_models(seed, ModelKind::all().to_vec())
    }

    /// The workload's matrix restricted to `models` (the smoke tests run a
    /// one-model slice).
    pub fn spec_with_models(self, seed: u64, models: Vec<ModelKind>) -> CampaignSpec {
        let spec = match self {
            Workload::TinySweep => CampaignSpec::new("tiny", self.board())
                .with_inputs(vec![InputKind::SamplePhoto, InputKind::Corrupted])
                .with_sanitize_policies(vec![
                    SanitizePolicy::None,
                    SanitizePolicy::SelectiveScrub,
                    SanitizePolicy::Background { delay_ticks: 1000 },
                ])
                .with_isolation_policies(vec![
                    IsolationPolicy::Permissive,
                    IsolationPolicy::Confined,
                ])
                .with_scrape_modes(vec![ScrapeMode::ContiguousRange, ScrapeMode::PerPage]),
            Workload::DecaySwap => CampaignSpec::new("tiny-swap50", self.board())
                .with_inputs(vec![InputKind::Corrupted])
                .with_remanence_models(vec![
                    RemanenceModel::Exponential { half_life_ticks: 4 },
                    RemanenceModel::BitFlip { rate_ppm: 120_000 },
                ])
                .with_scrape_modes(vec![
                    ScrapeMode::ContiguousRange,
                    ScrapeMode::MultiSnapshot { snapshots: 3 },
                ])
                .with_schedules(vec![
                    VictimSchedule::Single,
                    VictimSchedule::ForkHeavy { children: 2 },
                    VictimSchedule::LiveTraffic {
                        tenants: 2,
                        churn_rate: 1,
                    },
                ])
                .with_reconstruction(vec![false, true]),
            Workload::ConfinedFleet => CampaignSpec::new("tiny", self.board())
                .with_inputs(vec![InputKind::SamplePhoto, InputKind::Corrupted])
                .with_sanitize_policies(swept_policies())
                .with_isolation_policies(vec![IsolationPolicy::Confined])
                .with_schedules(vec![
                    VictimSchedule::Single,
                    VictimSchedule::SequentialTraffic { predecessors: 2 },
                ]),
        };
        spec.with_models(models).with_seed(seed)
    }

    /// The cell class the headline `cell_ms_*` metrics are taken over: the
    /// attack-bearing completed cells where the workload has them, else the
    /// blocked cells (`confined-fleet` has no other kind).
    pub fn primary_class(self) -> CellClass {
        match self {
            Workload::TinySweep | Workload::DecaySwap => CellClass::Completed,
            Workload::ConfinedFleet => CellClass::Blocked,
        }
    }

    /// The per-cell correctness rule, on top of the summary checks every
    /// workload gets:
    /// - `tiny-sweep`: the paper's result — every permissive/none cell
    ///   identifies the right model and recovers 100% of the pixels;
    /// - `decay-swap`: no isolation is swept, so every cell completes;
    /// - `confined-fleet`: every cell is blocked.
    pub fn cell_is_correct(self, record: &CellRecord) -> bool {
        match self {
            Workload::TinySweep => {
                let cell = &record.cell;
                if cell.isolation != IsolationPolicy::Permissive
                    || cell.sanitize != SanitizePolicy::None
                {
                    return true;
                }
                record.completed() && record.identified() && record.pixel_recovery() == 1.0
            }
            Workload::DecaySwap => record.completed(),
            Workload::ConfinedFleet => !record.completed(),
        }
    }

    /// FNV-1a hash of the full matrix's
    /// [`CampaignSummary::deterministic_json`](msa_core::CampaignSummary::deterministic_json)
    /// at [`DEFAULT_SEED`].
    pub fn pinned_summary_hash(self) -> u64 {
        match self {
            Workload::TinySweep => 0xe68a_5616_4f36_3fad,
            Workload::DecaySwap => 0xee2b_eb8e_739b_43c4,
            Workload::ConfinedFleet => 0x75da_6e03_a7aa_7e47,
        }
    }
}

/// The six sanitize policies the defense sweeps cover: every basic policy
/// plus a long-delay background scrubber.
fn swept_policies() -> Vec<SanitizePolicy> {
    let mut policies = SanitizePolicy::all_basic().to_vec();
    policies.push(SanitizePolicy::Background { delay_ticks: 1000 });
    policies
}

/// 64-bit FNV-1a, used to pin summaries without embedding their JSON.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_is_a_192_cell_matrix() {
        for workload in Workload::ALL {
            assert_eq!(workload.spec(DEFAULT_SEED).cell_count(), CELLS_PER_PASS);
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
    }
}
