//! # xsdb — the Xilinx System Debugger analogue (the attack channel)
//!
//! The paper's first contribution is the observation that the Xilinx system
//! debugger can be invoked from a *second* user space and grants unrestricted
//! access to process ids, virtual address spaces, pagemaps and physical
//! memory, because the FPGA's local memory is not mediated by the host OS.
//!
//! [`DebugSession`] models that channel: it connects a user to the board and
//! exposes exactly the operations the attack chains together —
//! [`DebugSession::list_processes`], [`DebugSession::read_maps`],
//! [`DebugSession::read_pagemap`], [`DebugSession::translate`] and
//! [`DebugSession::read_phys`].  Whether a cross-user call succeeds is
//! decided by the board's [`petalinux_sim::IsolationPolicy`], so the
//! vulnerable default and a hardened configuration can both be exercised.
//! Every operation is appended to an [`audit::AuditLog`], which the
//! detection-surface discussion in the experiments uses.
//!
//! # Example
//!
//! ```
//! use petalinux_sim::{BoardConfig, Kernel, UserId};
//! use vitis_ai_sim::{DpuRunner, ModelKind};
//! use xsdb::DebugSession;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut kernel = Kernel::boot(BoardConfig::tiny_for_tests());
//! let victim_run = DpuRunner::new(ModelKind::Resnet50Pt)
//!     .launch(&mut kernel, UserId::new(0))?;
//!
//! // The attacker connects the debugger from a different user space.
//! let mut debugger = DebugSession::connect(UserId::new(1));
//! let pids = debugger.list_processes(&kernel);
//! assert!(pids.iter().any(|p| p.command.contains("resnet50_pt")));
//! let maps = debugger.read_maps(&kernel, victim_run.pid())?;
//! assert!(maps.contains("[heap]"));
//! # Ok(())
//! # }
//! ```

pub mod audit;
pub mod session;

pub use audit::{AuditLog, AuditRecord, DebugOp};
pub use session::{DebugSession, ProcessInfo};
