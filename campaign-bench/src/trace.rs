//! The traced executor: runs a campaign cell exactly as the engine's own
//! executor does, but times each call into a layer's public functions from
//! here, outside the crates.
//!
//! Spans per cell:
//! - `scenario` build: [`CampaignCell::scenario`] (profile DB clone, input);
//! - petalinux-sim: [`AttackScenario::boot`](msa_core::AttackScenario::boot)
//!   (kernel boot, schedule prologue);
//! - vitis-ai-sim: [`BootedScenario::launch_victim`];
//! - attack: [`BootedScenario::run_attack`], split by the outcome's own
//!   [`StepTimings`] into poll, translate, scrape, analyse and the rest
//!   (terminate, sanitize, schedule epilogue, churn, scoring);
//! - analysis passes: each pass's public `*_view` function, timed on a
//!   re-scrape of the victim heap made after `run_attack` returns.
//!
//! The re-scrape goes through [`BootedScenario::kernel`] with a second
//! attacker session that observed the victim before it terminated.
//! `Kernel` has no interior mutability, so that session only reads and
//! cannot change the measured cell.  Its work is kept out of the cell's
//! time and counted as tracing overhead.

use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use msa_core::analysis::image::reconstruct_image_view;
use msa_core::analysis::marker::{marker_runs_view, CORRUPTED_MARKER};
use msa_core::analysis::reconstruct::{entropy_image_offset, fuzzy_identify_view, repair_image};
use msa_core::analysis::strings::identify_model_view;
use msa_core::attack::Observation;
use msa_core::campaign::{CampaignCell, CellRecord};
use msa_core::scenario::{BootedScenario, ScenarioResult};
use msa_core::scrape::{scrape_heap, scrape_heap_view};
use msa_core::{
    AttackConfig, AttackError, AttackPipeline, ModelMatch, ProfileDatabase, ScenarioOutcome,
    SignatureDb, StepTimings,
};
use petalinux_sim::{Kernel, KernelError, UserId};
use xsdb::DebugSession;
use zynq_dram::ScrapeView;

/// The attacker user every campaign scenario runs as (the
/// `AttackScenario` default, which campaign cells never override).
const ATTACKER: UserId = UserId::new(1);

/// The step-4 analysis passes, in the order the pipeline runs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalysisPass {
    /// Exact signature matching (`identify_model_view`).
    Signature,
    /// Bit-level fuzzy signature matching (`fuzzy_identify_view`).
    Fuzzy,
    /// Corrupted-image marker runs (`marker_runs_view`).
    Marker,
    /// Entropy-guided image location (`entropy_image_offset`).
    EntropyOffset,
    /// Image reconstruction (`reconstruct_image_view`).
    Image,
    /// Neighbor repair of the reconstructed image (`repair_image`).
    Repair,
}

impl AnalysisPass {
    /// Every pass, in pipeline order.
    pub const ALL: [AnalysisPass; 6] = [
        AnalysisPass::Signature,
        AnalysisPass::Fuzzy,
        AnalysisPass::Marker,
        AnalysisPass::EntropyOffset,
        AnalysisPass::Image,
        AnalysisPass::Repair,
    ];

    /// The pass's metric-name stem.
    pub fn name(self) -> &'static str {
        match self {
            AnalysisPass::Signature => "signature",
            AnalysisPass::Fuzzy => "fuzzy",
            AnalysisPass::Marker => "marker",
            AnalysisPass::EntropyOffset => "entropy_offset",
            AnalysisPass::Image => "image",
            AnalysisPass::Repair => "repair",
        }
    }
}

/// One timed analysis pass over a cell's re-scraped heap.
#[derive(Debug, Clone, Copy)]
pub struct PassTiming {
    /// Which pass ran.
    pub pass: AnalysisPass,
    /// Its wall clock.
    pub time: Duration,
    /// Bytes it examined.
    pub bytes: u64,
}

/// The deterministic DRAM and sanitizer work of one cell.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CellCounters {
    /// `DramStats::bytes_written`.
    pub bytes_written: u64,
    /// `DramStats::write_ops`.
    pub write_ops: u64,
    /// `DramStats::bytes_scrubbed`.
    pub bytes_scrubbed: u64,
    /// `DramStats::scrub_ops`.
    pub scrub_ops: u64,
    /// Summed `ScrubReport::cost_cycles` (simulated time).
    pub sanitize_cycles: f64,
    /// `AttackOutcome::bytes_scraped` (0 for blocked cells).
    pub scrape_bytes: u64,
}

impl CellCounters {
    /// The counters of a cell's kernel at the end of the cell.  Every cell
    /// boots a fresh kernel with zeroed statistics, so these are the cell's
    /// deltas.
    fn of(kernel: &Kernel) -> CellCounters {
        let stats = kernel.dram().stats();
        CellCounters {
            bytes_written: stats.bytes_written(),
            write_ops: stats.write_ops(),
            bytes_scrubbed: stats.bytes_scrubbed(),
            scrub_ops: stats.scrub_ops(),
            sanitize_cycles: kernel.scrub_reports().iter().map(|r| r.cost_cycles).sum(),
            scrape_bytes: 0,
        }
    }
}

/// Everything the traced executor measured for one cell.
#[derive(Debug, Clone, Default)]
pub struct CellTrace {
    /// The cell's index in the matrix.
    pub index: usize,
    /// The whole executor call, trace-only work included.
    pub span: Duration,
    /// The cell's own work: the span minus the trace-only work.  This is the
    /// traced record's `elapsed`.
    pub cell: Duration,
    /// `CampaignCell::scenario`.
    pub build: Duration,
    /// `AttackScenario::boot`.
    pub boot: Duration,
    /// `BootedScenario::launch_victim`, when boot succeeded.
    pub launch: Option<Duration>,
    /// `BootedScenario::run_attack`, when the victim launched.
    pub run_attack: Option<Duration>,
    /// The attack's own step timings, when it completed.
    pub steps: Option<StepTimings>,
    /// The analysis passes timed on the re-scrape (completed cells only).
    pub passes: Vec<PassTiming>,
    /// Deterministic work counters, when boot succeeded.
    pub counters: Option<CellCounters>,
}

impl CellTrace {
    /// The summed self time of the layers the cell called: scenario build,
    /// boot, launch and the whole attack call.
    pub fn layer_sum(&self) -> Duration {
        self.build
            + self.boot
            + self.launch.unwrap_or_default()
            + self.run_attack.unwrap_or_default()
    }

    /// `run_attack` minus its four steps.
    pub fn run_self(&self) -> Option<Duration> {
        let steps = self.steps?;
        Some(self.run_attack?.saturating_sub(steps.total()))
    }
}

/// Runs `cell` like the engine's own executor and appends its trace to
/// `sink`.  The returned record has the same deterministic view as the
/// untraced stream's; its `elapsed` excludes the trace-only work.
///
/// # Errors
///
/// The same errors the engine's executor returns; an isolation denial is a
/// blocked record, not an error.
pub fn traced_cell(
    cell: &CampaignCell,
    profiles: &ProfileDatabase,
    sink: &Mutex<Vec<CellTrace>>,
) -> Result<CellRecord, AttackError> {
    let started = Instant::now();
    let mut trace = CellTrace {
        index: cell.index,
        ..CellTrace::default()
    };
    let mut trace_only = Duration::ZERO;

    let (scenario, build) = timed(|| cell.scenario(profiles.clone(), &AttackConfig::default()));
    trace.build = build;
    let (booted, boot) = timed(|| scenario.boot());
    trace.boot = boot;
    let staged = booted.and_then(|mut booted| {
        let staged = traced_stages(&mut booted, &mut trace, &mut trace_only);
        let scrape_bytes = staged.as_ref().map_or(0, |o| o.bytes_scraped() as u64);
        let (counters, count) = timed(|| CellCounters {
            scrape_bytes,
            ..CellCounters::of(booted.kernel())
        });
        trace.counters = Some(counters);
        trace_only += count;
        staged
    });
    let (result, outcome) = match staged {
        Ok(outcome) => (ScenarioResult::Completed, Some(outcome)),
        Err(AttackError::Channel(KernelError::PermissionDenied { operation, .. })) => (
            ScenarioResult::Blocked {
                step: operation.to_string(),
            },
            None,
        ),
        Err(error) => return Err(error),
    };
    let mut record = CellRecord {
        cell: cell.clone(),
        metrics: outcome.as_ref().map(ScenarioOutcome::metrics),
        timings: outcome.map(|o| o.attack().timings),
        result,
        elapsed: Duration::ZERO,
    };
    trace.span = started.elapsed();
    trace.cell = trace.span.saturating_sub(trace_only);
    record.elapsed = trace.cell;
    // A push either happened or not, so a sink poisoned by another
    // worker's panic still holds whole traces.
    sink.lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(trace);
    Ok(record)
}

/// Launch and attack, timed; on a completed attack, also times the
/// analysis passes on a re-scrape.  `trace_only` accumulates the time spent
/// on work the untraced executor does not do.
fn traced_stages(
    booted: &mut BootedScenario<'_>,
    trace: &mut CellTrace,
    trace_only: &mut Duration,
) -> Result<ScenarioOutcome, AttackError> {
    let (victim, launch) = timed(|| booted.launch_victim());
    trace.launch = Some(launch);
    let victim = victim?;

    // The second session observes the victim while it still runs, as the
    // attack itself is about to.  Under a confined debugger it is denied
    // like the attack and simply observes nothing.
    let ((mut shadow, observed), observe) = timed(|| {
        let mut shadow = DebugSession::connect(ATTACKER);
        let observed = booted
            .pipeline()
            .poll_and_observe(&mut shadow, booted.kernel())
            .ok();
        (shadow, observed)
    });
    *trace_only += observe;

    let (outcome, run_attack) = timed(|| booted.run_attack(victim));
    trace.run_attack = Some(run_attack);
    let outcome = outcome?;
    trace.steps = Some(outcome.attack().timings);

    if let Some(observation) = observed {
        let (passes, rescrape) = timed(|| {
            time_analysis(
                booted.kernel(),
                booted.pipeline(),
                &mut shadow,
                &observation,
            )
        });
        trace.passes = passes;
        *trace_only += rescrape;
    }
    Ok(outcome)
}

/// Re-scrapes the victim heap the way the attack read it and times each
/// analysis pass over it.
///
/// The attack takes the owned-dump path when the victim left compressed
/// swap residue (or the board's remanence forbids borrowed reads), else the
/// borrowed view; the re-scrape does the same.  A multi-snapshot attack
/// fused reads taken one decay tick apart on a mutable kernel; the
/// re-scrape reads the settled residue once, so its bytes match in size but
/// not necessarily in content.
fn time_analysis(
    kernel: &Kernel,
    pipeline: &AttackPipeline,
    shadow: &mut DebugSession,
    observation: &Observation,
) -> Vec<PassTiming> {
    let mode = pipeline.config().scrape_mode;
    let owner = observation.pid().owner_tag();
    let has_swap_residue = kernel.dram().swap_store().residue_bytes(Some(owner)) > 0;
    if !has_swap_residue {
        if let Ok(Some(heap)) = scrape_heap_view(shadow, kernel, observation.translation(), mode) {
            return time_passes(heap.view(), pipeline);
        }
    }
    match scrape_heap(shadow, kernel, observation.translation(), mode) {
        Ok(mut dump) => {
            pipeline.read_swap_residue(kernel, observation, &mut dump);
            time_passes(&dump.as_view(), pipeline)
        }
        Err(_) => Vec::new(),
    }
}

/// Runs the analysis passes the pipeline's `analyze_view` would run on
/// `view`, in the same order and under the same conditions, timing each.
fn time_passes(view: &ScrapeView<'_>, pipeline: &AttackPipeline) -> Vec<PassTiming> {
    let config = pipeline.config();
    let signatures = SignatureDb::standard();
    let view_bytes = view.len() as u64;
    let usable = |m: &ModelMatch| m.confidence() >= config.min_identification_confidence;
    let mut passes = Vec::new();
    let mut record = |pass, time, bytes| passes.push(PassTiming { pass, time, bytes });

    let (mut identified, time) = timed(|| identify_model_view(view, &signatures));
    record(AnalysisPass::Signature, time, view_bytes);
    if config.reconstruct && !identified.as_ref().is_some_and(usable) {
        let (fuzzy, time) = timed(|| fuzzy_identify_view(view, &signatures));
        record(AnalysisPass::Fuzzy, time, view_bytes);
        identified = fuzzy.filter(usable).or(identified);
    }
    let (runs, time) = timed(|| marker_runs_view(view, CORRUPTED_MARKER, config.marker_min_run));
    record(AnalysisPass::Marker, time, view_bytes);

    let Some(matched) = identified.filter(|m| usable(m) && m.model.accepts_image_input()) else {
        return passes;
    };
    let (w, h) = matched.model.input_dims();
    let image_bytes = u64::from(w) * u64::from(h) * 3;
    let offset = if let Some(profile) = pipeline.profiles().profile(matched.model) {
        Some(profile.image_offset)
    } else if let Some(run) = runs.first() {
        Some(run.offset)
    } else if config.reconstruct {
        let image_len = usize::try_from(image_bytes).unwrap_or(usize::MAX);
        let (offset, time) = timed(|| entropy_image_offset(view, image_len));
        record(AnalysisPass::EntropyOffset, time, view_bytes);
        offset
    } else {
        None
    };
    let Some(offset) = offset else {
        return passes;
    };
    let (image, time) = timed(|| reconstruct_image_view(view, matched.model, offset));
    record(AnalysisPass::Image, time, image_bytes);
    if let (true, Some(image)) = (config.reconstruct, image) {
        let (_, time) = timed(|| repair_image(&image));
        record(AnalysisPass::Repair, time, image_bytes);
    }
    passes
}

/// Runs `work`, returning its result (through `black_box`) and wall clock.
fn timed<T>(work: impl FnOnce() -> T) -> (T, Duration) {
    let started = Instant::now();
    let value = std::hint::black_box(work());
    (value, started.elapsed())
}
