//! Aho–Corasick automaton over every pattern of a [`SignatureDb`]
//! (Aho & Corasick, "Efficient string matching", CACM 1975).
//!
//! The trie of all patterns is completed into a dense DFA, so each scanned
//! byte costs one table lookup and the whole database is matched in a
//! single pass.  The state is carried from one segment of a [`ScrapeView`]
//! to the next, so matches that straddle chunk seams need no bridging.
//!
//! Two choices keep the table small enough to build once per database:
//! - bytes that occur in no pattern share one class, so a row is only as
//!   wide as the patterns' distinct bytes plus one (about 40 for the
//!   standard database rather than 256);
//! - state ids are `u32` row offsets (the state's index times the row
//!   width), with the top bit marking the states that end a pattern.
//!
//! [`SignatureDb`]: super::SignatureDb

// Lint audit: every `delta` index is a row offset the builder produced
// plus a class below the row width, and every `outputs` index is a state
// index below the state count; pattern ids index `found`, which the scan
// sizes to the pattern count.
#![allow(clippy::indexing_slicing)]

use std::collections::VecDeque;
use std::fmt;

use zynq_dram::ScrapeView;

/// Set on a transition whose target state ends at least one pattern.
const MATCH_FLAG: u32 = 1 << 31;

/// Marks a trie edge that does not exist yet while the automaton is built.
const NO_EDGE: u32 = u32::MAX;

/// A dense Aho–Corasick DFA over byte classes.
pub(super) struct Automaton {
    /// Class of each byte value.  Bytes in no pattern share one class.
    classes: [u8; 256],
    /// Row width of `delta`: the number of classes.
    stride: usize,
    /// Transitions: entry `state + class` is the next state's row offset,
    /// with [`MATCH_FLAG`] set when that state ends a pattern.
    delta: Vec<u32>,
    /// Per state index, the ids of every pattern ending there, including
    /// those reached through failure links.
    outputs: Vec<Vec<usize>>,
    /// Number of pattern ids, empty patterns included.
    patterns: usize,
}

impl Automaton {
    /// Builds the automaton for `patterns`, whose ids are their positions.
    /// Empty patterns keep their id but are never found.
    pub(super) fn new<'p>(patterns: impl Iterator<Item = &'p [u8]> + Clone) -> Self {
        let mut used = [false; 256];
        for &byte in patterns.clone().flatten() {
            used[usize::from(byte)] = true;
        }
        let mut classes = [0u8; 256];
        // Class 0 is shared by the bytes in no pattern, if there are any.
        let mut stride = usize::from(used.contains(&false));
        for (class, _) in classes.iter_mut().zip(used).filter(|(_, used)| *used) {
            *class = u8::try_from(stride).expect("at most 256 byte classes");
            stride += 1;
        }

        // The trie, one row of `stride` edges per state; state 0 is the root.
        let mut goto = vec![NO_EDGE; stride];
        let mut outputs: Vec<Vec<usize>> = vec![Vec::new()];
        let count = patterns.clone().count();
        for (id, pattern) in patterns.enumerate() {
            let mut state = 0usize;
            for &byte in pattern {
                let edge = state * stride + usize::from(classes[usize::from(byte)]);
                if goto[edge] == NO_EDGE {
                    goto[edge] = u32::try_from(outputs.len()).expect("state count fits u32");
                    goto.resize(goto.len() + stride, NO_EDGE);
                    outputs.push(Vec::new());
                }
                state = goto[edge] as usize;
            }
            if state != 0 {
                outputs[state].push(id);
            }
        }

        // Breadth-first, each state's failure target is shallower and so
        // already complete: missing edges copy the failure target's row, and
        // outputs inherit the failure target's outputs.
        let mut fail = vec![0usize; outputs.len()];
        let mut queue = VecDeque::new();
        for edge in &mut goto[..stride] {
            if *edge == NO_EDGE {
                *edge = 0;
            } else {
                queue.push_back(*edge as usize);
            }
        }
        let mut fallback = vec![0u32; stride];
        while let Some(state) = queue.pop_front() {
            let failure = fail[state];
            let inherited = outputs[failure].clone();
            outputs[state].extend(inherited);
            fallback.copy_from_slice(&goto[failure * stride..][..stride]);
            for (edge, &next) in goto[state * stride..][..stride].iter_mut().zip(&fallback) {
                if *edge == NO_EDGE {
                    *edge = next;
                } else {
                    fail[*edge as usize] = next as usize;
                    queue.push_back(*edge as usize);
                }
            }
        }

        // Turn state indexes into flagged row offsets, in place.
        let rows: Vec<u32> = outputs
            .iter()
            .enumerate()
            .map(|(state, ends)| {
                let offset = state
                    .checked_mul(stride)
                    .and_then(|offset| u32::try_from(offset).ok())
                    .filter(|&offset| offset < MATCH_FLAG)
                    .expect("signature automaton table fits 2^31 entries");
                if ends.is_empty() {
                    offset
                } else {
                    offset | MATCH_FLAG
                }
            })
            .collect();
        for edge in &mut goto {
            *edge = rows[*edge as usize];
        }
        Automaton {
            classes,
            stride,
            delta: goto,
            outputs,
            patterns: count,
        }
    }

    /// Scans `view` once and reports, per pattern id, whether the pattern
    /// occurs anywhere in it.
    pub(super) fn found(&self, view: &ScrapeView<'_>) -> Vec<bool> {
        let mut found = vec![false; self.patterns];
        let mut state = 0usize;
        for segment in view.segments() {
            for &byte in segment {
                let next = self.delta[state + usize::from(self.classes[usize::from(byte)])];
                state = (next & !MATCH_FLAG) as usize;
                if next & MATCH_FLAG != 0 {
                    for &id in &self.outputs[state / self.stride] {
                        found[id] = true;
                    }
                }
            }
        }
        found
    }
}

impl fmt::Debug for Automaton {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Automaton")
            .field("states", &self.outputs.len())
            .field("classes", &self.stride)
            .field("patterns", &self.patterns)
            .finish()
    }
}
