//! A small 32-bit RISC instruction-set simulator.
//!
//! The paper evaluates PECOS by injecting errors into the **text
//! segment** of a SPARC call-processing client and watching what the
//! machine does: crashes (SIGSEGV/SIGILL-class signals), hangs,
//! divide-by-zero exceptions raised by PECOS assertion blocks, or
//! silent data corruption. Reproducing that requires a machine with
//! real, bit-level instruction encodings — so this crate provides one:
//!
//! * [`Inst`] — the instruction set, with exact 32-bit encodings
//!   ([`encode`]/[`decode`]), including the control-flow instructions
//!   (CFIs) PECOS protects and the [`Inst::Pckt`] table-membership
//!   check used for multi-target assertions.
//! * [`asm`] — a two-pass assembler over a symbolic AST
//!   ([`asm::Assembly`]); PECOS instruments this AST, never raw bytes,
//!   mirroring the paper's assembly-level parser.
//! * [`Program`] — assembled text plus the symbol table.
//! * [`Machine`] — a deterministic round-robin multi-threaded
//!   interpreter with per-thread registers, stack and data memory,
//!   precise exceptions and a syscall bridge ([`SyscallHandler`])
//!   through which client programs reach the controller database.
//!
//! The text segment is mutable at run time ([`Machine::text_mut`]) so
//! the fault injector can flip real instruction bits; decoding errors,
//! wild jumps and bad memory accesses then surface as the same
//! exception classes a real processor would raise.
//!
//! # Example
//!
//! ```
//! use wtnc_isa::{asm, Machine, MachineConfig, NoSyscalls, ThreadState};
//!
//! let program = asm::assemble_source(
//!     r#"
//!     start:
//!         movi r1, 10
//!         movi r2, 0
//!     loop:
//!         add  r2, r2, r1
//!         addi r1, r1, -1
//!         bne  r1, r0, loop
//!         halt
//!     "#,
//! ).unwrap();
//! let mut m = Machine::load(&program, MachineConfig::default());
//! let t = m.spawn_thread(program.entry);
//! m.run(&mut NoSyscalls, 1_000);
//! assert_eq!(m.thread_state(t), ThreadState::Halted);
//! assert_eq!(m.reg(t, 2).unwrap(), 55); // 10+9+...+1
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
mod decoded;
mod inst;
mod machine;
mod program;
mod superblock;

pub use inst::{decode, encode, DecodeError, Inst, OPCODE_SHIFT, TARGET_MASK};
pub use machine::{
    Engine, ExceptionInfo, ExceptionKind, Machine, MachineConfig, NoSyscalls, StepOutcome,
    SyscallHandler, SyscallRequest, ThreadState, DATA_WORDS, MAX_PCKT_TABLE,
};
pub use program::Program;
pub use superblock::{ExitKind, SuperblockInfo, SuperblockStats};

/// Identifier of a machine thread (index into the machine's thread
/// table).
pub type ThreadId = usize;
