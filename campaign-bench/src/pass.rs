//! One pass over a workload's matrix, run on a watchdog thread.
//!
//! The stream engine runs on its own thread and hands each visited cell back
//! over a channel, so the caller can give up on a pass that never returns.
//! A panicking cell hangs `campaign::stream::run`, and one `Err` aborts the
//! whole stream; both show up here as unfinished cells instead of a stalled
//! benchmark.

use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use msa_core::campaign::{CampaignSummary, CellRecord};
use msa_core::AttackError;

use crate::workload::{CellClass, Workload};

/// What the benchmark keeps of one visited cell.
#[derive(Debug, Clone, Copy)]
pub struct CellSample {
    /// Whether the attack ran to completion (else it was blocked).
    pub completed: bool,
    /// `CellRecord::elapsed`: boot to scored outcome.
    pub elapsed: Duration,
    /// `StepTimings::total()` of a completed cell.
    pub attack: Option<Duration>,
    /// Whether the cell passed its workload's correctness rule.
    pub correct: bool,
}

impl CellSample {
    /// Condenses `record` and applies `workload`'s correctness rule.
    pub fn of(workload: Workload, record: &CellRecord) -> CellSample {
        CellSample {
            completed: record.completed(),
            elapsed: record.elapsed,
            attack: record.timings.map(|t| t.total()),
            correct: workload.cell_is_correct(record),
        }
    }

    /// The cell's class.
    pub fn class(&self) -> CellClass {
        if self.completed {
            CellClass::Completed
        } else {
            CellClass::Blocked
        }
    }
}

/// How a pass ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PassEnd {
    /// The stream returned; its deterministic summary surface.
    Finished {
        /// `CampaignSummary::deterministic_json` of the pass.
        summary: String,
    },
    /// The stream returned an error, or its thread panicked.
    Aborted {
        /// What went wrong.
        error: String,
    },
    /// The watchdog fired before the stream returned.
    TimedOut,
}

/// One pass: the visited cells in index order and how the stream ended.
#[derive(Debug, Clone)]
pub struct Pass {
    /// The cells the stream visited.
    pub samples: Vec<CellSample>,
    /// How the pass ended.
    pub end: PassEnd,
    /// Wall clock from starting the stream to its return (or the watchdog).
    pub wall: Duration,
    /// Cells in the pass's matrix.
    pub cells_total: usize,
}

impl Pass {
    /// Cells that failed: never visited (aborted or timed-out stream) or
    /// visited but incorrect.
    pub fn failed_cells(&self) -> usize {
        let unfinished = self.cells_total.saturating_sub(self.samples.len());
        unfinished + self.samples.iter().filter(|s| !s.correct).count()
    }

    /// The pass's summary, when the stream finished.
    pub fn summary(&self) -> Option<&str> {
        match &self.end {
            PassEnd::Finished { summary } => Some(summary),
            _ => None,
        }
    }
}

/// Runs `stream` on its own thread and collects the samples it sends until
/// it returns or `timeout` passes.
///
/// `stream` receives the sender its visitor reports cells on and returns the
/// stream's summary.  On a timeout the stream thread is left running; the
/// caller reports the failure and exits the process, which ends it.
pub fn run_pass<F>(cells_total: usize, timeout: Duration, stream: F) -> Pass
where
    F: FnOnce(&Sender<CellSample>) -> Result<CampaignSummary, AttackError> + Send + 'static,
{
    let started = Instant::now();
    let (cell_tx, cell_rx) = mpsc::channel();
    let (done_tx, done_rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let result = stream(&cell_tx)
            .map(|summary| summary.deterministic_json())
            .map_err(|error| error.to_string());
        // The receiver is gone only after a timeout, when nobody listens.
        let _ = done_tx.send(result);
    });
    let end = match done_rx.recv_timeout(timeout) {
        Ok(Ok(summary)) => PassEnd::Finished { summary },
        Ok(Err(error)) => PassEnd::Aborted { error },
        Err(RecvTimeoutError::Timeout) => PassEnd::TimedOut,
        Err(RecvTimeoutError::Disconnected) => PassEnd::Aborted {
            error: "stream thread panicked".into(),
        },
    };
    let wall = started.elapsed();
    if end != PassEnd::TimedOut {
        // A panic already surfaced as `Aborted` through the dropped sender.
        let _ = handle.join();
    }
    let samples = cell_rx.try_iter().collect();
    Pass {
        samples,
        end,
        wall,
        cells_total,
    }
}

/// The visitor every pass uses: sends the condensed cell to the collector.
///
/// # Errors
///
/// Never fails; the signature matches `CampaignSpec::stream_cells`.
pub fn report_cell(
    tx: &Sender<CellSample>,
    workload: Workload,
    record: &CellRecord,
) -> Result<(), AttackError> {
    // A closed channel means the watchdog gave up; the cell is lost anyway.
    let _ = tx.send(CellSample::of(workload, record));
    Ok(())
}
