//! The physical-memory read channel: one request type, one result type.
//!
//! Every multi-byte `devmem`-style read — the kernel primitive, the shell's
//! permission-checked form and the debugger's audited form — takes a
//! [`PhysRead`] and answers with [`PhysBytes`].

use zynq_dram::{PhysAddr, ScrapeView};

/// A request to read `len` bytes of physical memory starting at `addr`.
///
/// `workers` is the number of concurrent per-bank `devmem` loops the read
/// may fan out over when it has to copy (the bank-striped scraping
/// strategy); the bytes read never depend on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhysRead {
    /// First physical address read.
    pub addr: PhysAddr,
    /// Number of bytes read.
    pub len: u64,
    /// Bank workers for a copying read (must be non-zero).
    pub workers: usize,
}

impl PhysRead {
    /// A single-worker read of `len` bytes at `addr`.
    pub fn new(addr: PhysAddr, len: u64) -> Self {
        PhysRead {
            addr,
            len,
            workers: 1,
        }
    }

    /// The same read fanned across `workers` bank workers.
    pub fn with_workers(self, workers: usize) -> Self {
        PhysRead { workers, ..self }
    }
}

/// The bytes a [`PhysRead`] returned.
///
/// Under a perfect remanence model the read borrows the range straight out
/// of the DRAM bank arenas; a decaying model needs an owned transform of the
/// residue, so the read copies.  Both forms hold the same bytes.
#[derive(Debug, Clone)]
pub enum PhysBytes<'k> {
    /// A zero-copy view over the bank arenas.
    Borrowed(ScrapeView<'k>),
    /// An owned copy (decayed residue).
    Owned(Vec<u8>),
}

impl<'k> PhysBytes<'k> {
    /// Number of bytes read.
    pub fn len(&self) -> usize {
        match self {
            PhysBytes::Borrowed(view) => view.len(),
            PhysBytes::Owned(bytes) => bytes.len(),
        }
    }

    /// `true` when the read covered no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bytes as an owned buffer, copying only a borrowed view.
    pub fn into_vec(self) -> Vec<u8> {
        match self {
            PhysBytes::Borrowed(view) => view.to_vec(),
            PhysBytes::Owned(bytes) => bytes,
        }
    }

    /// Appends the bytes of a later read.
    ///
    /// Empty bytes take `next` over as it is, so a lone owned read is never
    /// copied.  Otherwise the result stays borrowed while both sides are,
    /// and turns owned at the first copied side.  Borrowed views must share
    /// their chunk unit, and `next` must start on a unit boundary.
    pub fn append(&mut self, next: PhysBytes<'k>) {
        match (self, next) {
            (this, next) if this.is_empty() => *this = next,
            (PhysBytes::Borrowed(view), PhysBytes::Borrowed(next)) => view.append(next),
            (PhysBytes::Owned(bytes), next) => next.extend_onto(bytes),
            (this, next) => {
                let mut bytes = std::mem::replace(this, PhysBytes::Owned(Vec::new())).into_vec();
                next.extend_onto(&mut bytes);
                *this = PhysBytes::Owned(bytes);
            }
        }
    }

    /// Appends `len` zero bytes (bytes the reader could not reach).
    pub fn push_zeros(&mut self, len: usize) {
        match self {
            PhysBytes::Borrowed(view) => view.push_zeros(len),
            PhysBytes::Owned(bytes) => bytes.resize(bytes.len() + len, 0),
        }
    }

    fn extend_onto(self, bytes: &mut Vec<u8>) {
        match self {
            PhysBytes::Borrowed(view) => view.segments().for_each(|s| bytes.extend_from_slice(s)),
            PhysBytes::Owned(owned) => bytes.extend_from_slice(&owned),
        }
    }
}
