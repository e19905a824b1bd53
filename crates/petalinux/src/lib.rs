//! # petalinux-sim — embedded-OS simulator for the MSA reproduction
//!
//! Stands in for the PetaLinux system running on the ZCU104's Cortex-A53
//! cluster.  It provides exactly the surfaces the memory scraping attack
//! interacts with:
//!
//! - a [`Kernel`] owning the board's local [`zynq_dram::Dram`], the physical
//!   [`zynq_mmu::FrameAllocator`] and a process table,
//! - process lifecycle (spawn → run → terminate) where termination applies a
//!   configurable [`zynq_dram::SanitizePolicy`] — the vulnerable default
//!   applies none, leaving residue,
//! - `/proc` emulation: textual `/proc/<pid>/maps` files and binary
//!   `/proc/<pid>/pagemap` regions in the exact formats the attack parses,
//! - a [`Shell`] bound to a user offering `ps -ef`, `devmem`, and the proc
//!   reads, gated by the board's [`IsolationPolicy`].
//!
//! # Example
//!
//! ```
//! use petalinux_sim::{BoardConfig, Kernel, Shell, UserId};
//!
//! # fn main() -> Result<(), petalinux_sim::KernelError> {
//! let mut kernel = Kernel::boot(BoardConfig::zcu104());
//! let victim = UserId::new(0);
//! let pid = kernel.spawn(victim, &["./resnet50_pt", "model.xmodel", "001.jpg"])?;
//! kernel.grow_heap(pid, 8 * 4096)?;
//! let heap_base = kernel.process(pid)?.heap_base();
//! kernel.write_process_memory(pid, heap_base, b"secret")?;
//!
//! // Another user's shell can still see the process (Figure 6 of the paper).
//! let attacker_shell = Shell::new(UserId::new(1));
//! let listing = attacker_shell.ps_ef(&kernel);
//! assert!(listing.contains("./resnet50_pt"));
//! # Ok(())
//! # }
//! ```

pub mod config;
pub mod error;
pub mod kernel;
pub mod phys;
pub mod process;
pub mod procfs;
pub mod shell;
pub mod user;

pub use config::{BoardConfig, IsolationPolicy};
pub use error::KernelError;
pub use kernel::Kernel;
pub use phys::{PhysBytes, PhysRead};
pub use process::{Pid, Process, ProcessState};
pub use shell::Shell;
pub use user::UserId;
