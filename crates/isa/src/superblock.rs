//! The superblock-compiling direct-threaded execution engine.
//!
//! PR 4's [`DecodedCache`] removed per-step *decoding*, but every
//! instruction still re-entered the interpreter's dispatch `match`.
//! This module removes the per-instruction dispatch too: when
//! [`Machine::run`](crate::Machine::run) keeps returning to the same
//! program counter with a single runnable thread, the address is
//! compiled into a **superblock** — a straight-line region from the
//! entry PC to the first side-exit (conditional branch, `PCKT` table
//! check, syscall, fused-assertion fail edge, halt, or an undecodable
//! word) — represented as a flat array of pre-bound fn-pointer ops
//! ending in a typed [`ExitKind`] descriptor. Unconditional control
//! flow does not end a superblock: `jmp` and `call` **chain** straight
//! through their targets, and an installed PECOS assertion block whose
//! [`FusedPlan`] is ready is embedded as a single fused op that retires
//! the whole block and chains on through the protected CFI, so the
//! instrumented client's hot loop runs as a handful of compiled plans
//! with no interpreter dispatch between instructions.
//!
//! # Exactness contract
//!
//! A superblock must be observationally identical to single-stepping:
//!
//! * every op carries its own PC and retired-step weight, so
//!   `total_steps`/per-thread step counts, exception PCs and kinds,
//!   and the final [`StepOutcome::Executed`](crate::StepOutcome) PC
//!   are bit-identical to the slow engine;
//! * a block only runs when the remaining `max_steps` budget covers
//!   its whole weight, so budget cutoffs land on the same instruction
//!   the slow engine would stop at;
//! * a fused table op whose stack pointer would make the underlying
//!   `ld` fault **deopts**: nothing of the op retires and the thread
//!   is left at the op's PC for the word-at-a-time path to raise the
//!   exact memory fault.
//!
//! # Invalidation
//!
//! Every block records the set of text words it was compiled from
//! (instruction words, fused-region inputs including the protected
//! CFI, and any embedded `PCKT` table's count and member words).
//! [`Machine::store_text`](crate::Machine::store_text) eagerly removes
//! every block covering the written word via the per-word cover index,
//! and belt-and-braces, the cache keeps a monotonic **generation
//! counter**: each write stamps the word's generation, each block
//! records the generation it was compiled at, and a block whose input
//! words have a newer generation can never fire — even if the eager
//! cover index were ever wrong, a stale plan is unreachable.

use crate::decoded::{DecodedCache, FusedPlan, PlanSlot};
use crate::inst::Inst;
use crate::machine::{ExceptionKind, SyscallHandler, SyscallRequest, DATA_WORDS};
use crate::ThreadId;

/// Ops per superblock before compilation stops chaining. Bounds both
/// compile time and the budget a block demands before it may run.
const MAX_OPS: usize = 256;

/// Dispatch visits to an uncompiled entry PC before it is compiled.
/// [`SuperblockCache::seed`] primes seeded entries to this threshold
/// so they compile on first entry.
const HOT_THRESHOLD: u16 = 2;

/// Why compilation of a superblock stopped — the typed exit descriptor
/// at the end of every compiled plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitKind {
    /// A conditional branch: the terminal op picks the target at run
    /// time.
    Branch,
    /// An indirect transfer (`ret`/`callr`/`jr`): the terminal op
    /// computes the target at run time.
    Indirect,
    /// A syscall: the block falls through to the next instruction
    /// after the handler returns.
    Syscall,
    /// A standalone `PCKT` table check (outside a fused region).
    TableCheck,
    /// An embedded fused assertion whose check statically fails: the
    /// terminal op raises the assertion's divide-by-zero.
    FusedFail,
    /// `halt`.
    Halt,
    /// The next word does not decode: the terminal op raises the
    /// illegal-instruction exception.
    Poisoned,
    /// Chaining reached a PC already compiled into this block (a
    /// loop back edge); the block falls through to it.
    Loop,
    /// Chaining left the text segment; the next fetch faults.
    OutOfText,
    /// The op-count cap was reached.
    ChainLimit,
}

impl ExitKind {
    /// Short stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ExitKind::Branch => "branch",
            ExitKind::Indirect => "indirect",
            ExitKind::Syscall => "syscall",
            ExitKind::TableCheck => "table-check",
            ExitKind::FusedFail => "fused-fail",
            ExitKind::Halt => "halt",
            ExitKind::Poisoned => "poisoned",
            ExitKind::Loop => "loop",
            ExitKind::OutOfText => "out-of-text",
            ExitKind::ChainLimit => "chain-limit",
        }
    }
}

/// A materialized `PCKT` table embedded in a block, or the build-time
/// fault the slow path would raise before the membership test.
#[derive(Debug, Clone)]
pub(crate) enum TableData {
    /// Sorted member words.
    Members(Box<[u32]>),
    /// The cached build fault (corrupted count, count/table out of
    /// text), raised with the op's own PC.
    Fault(ExceptionKind),
}

impl TableData {
    fn contains(&self, value: u32) -> bool {
        match self {
            TableData::Members(words) => words.binary_search(&value).is_ok(),
            TableData::Fault(_) => false,
        }
    }
}

/// Out-of-line data for ops that need more than the inline fields:
/// embedded fused assertion blocks and standalone `PCKT` tables.
#[derive(Debug, Clone)]
pub(crate) enum Aux {
    /// Statically-resolved assertion (`jmp`/`call`/branch protection):
    /// scratch-register finals and pass/fail precomputed.
    FusedStatic {
        /// Final `r11` (branch blocks only).
        r11: Option<u64>,
        /// Final `r12` (the masked CFI target bits).
        r12: u64,
        /// Precomputed check result.
        pass: bool,
    },
    /// `ret` protection: runtime target on top of the stack.
    FusedStackTable {
        /// Embedded sorted target table.
        table: TableData,
    },
    /// `callr`/`jr` protection: runtime target in a register.
    FusedRegTable {
        /// Register holding the target.
        src: u8,
        /// Embedded sorted target table.
        table: TableData,
    },
    /// A standalone `PCKT` membership check.
    Pckt {
        /// Embedded sorted target table or cached build fault.
        table: TableData,
    },
}

/// What an op told the block executor to do next.
pub(crate) enum Flow {
    /// Retired; continue with the next op.
    Next,
    /// Retired; the op transferred control — `OpCtx::pc` holds the
    /// next PC and the block is done.
    Done,
    /// Retired; the thread halted.
    Halt,
    /// Retired; raise this exception at this PC.
    Fault(u16, ExceptionKind),
    /// **Nothing retired**: bail out with the thread left at this
    /// op's PC for the word-at-a-time path.
    Deopt,
}

/// Mutable machine state a block executes against. Field-split from
/// the owning thread so ops touch registers and data directly.
pub(crate) struct OpCtx<'a> {
    pub regs: &'a mut [u64; 16],
    pub data: &'a mut [u64],
    pub text: &'a [u32],
    pub sys: &'a mut dyn SyscallHandler,
    pub tid: ThreadId,
    pub aux: &'a [Aux],
    /// Out-parameter: next PC after a [`Flow::Done`] op.
    pub pc: u16,
    /// Fused assertion blocks executed (feeds the machine's
    /// superstep counter).
    pub supersteps: u64,
}

type OpFn = fn(&mut OpCtx<'_>, &Op) -> Flow;

/// One pre-bound handler in a compiled plan: the direct-threaded unit
/// of execution.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Op {
    pub exec: OpFn,
    /// Address of the compiled instruction (fused ops: region start).
    pub pc: u16,
    /// PC reported when this op is the last to retire (fused ops: the
    /// region's final instruction).
    pub out_pc: u16,
    /// Retired-step weight (fused ops: the region length).
    pub weight: u16,
    pub rd: u8,
    pub rs: u8,
    pub rt: u8,
    /// Immediate/address, or an index into the block's [`Aux`] table.
    pub imm: i64,
}

/// A compiled superblock.
#[derive(Debug, Clone)]
pub(crate) struct Superblock {
    pub entry: u16,
    pub ops: Box<[Op]>,
    pub aux: Box<[Aux]>,
    /// Sorted, deduplicated text words this block was compiled from.
    pub words: Box<[u16]>,
    /// Steps the whole block retires (the budget it demands).
    pub total_steps: u64,
    /// Thread PC when every op completes with [`Flow::Next`].
    pub fallthrough: u16,
    pub exit: ExitKind,
    /// Generation the block was compiled at; stale inputs make the
    /// block unreachable (see module docs).
    pub gen: u64,
}

/// Public per-block summary for CLI/bench reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuperblockInfo {
    /// Entry PC.
    pub entry: u16,
    /// Compiled ops in the plan.
    pub ops: usize,
    /// Instructions the plan retires per execution (chain length).
    pub steps: u64,
    /// Exit descriptor name.
    pub exit: &'static str,
}

/// Public snapshot of superblock-engine activity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SuperblockStats {
    /// Blocks compiled (including recompilations after invalidation).
    pub compiled: u64,
    /// Blocks discarded by text-write invalidation.
    pub invalidated: u64,
    /// Block executions.
    pub entered: u64,
    /// Instructions retired inside blocks.
    pub block_steps: u64,
    /// Currently resident blocks, by entry PC.
    pub blocks: Vec<SuperblockInfo>,
}

/// The per-machine superblock store: compiled plans keyed by entry PC,
/// a per-word cover index for exact invalidation, per-word write
/// generations, and entry-hotness counters.
#[derive(Debug, Clone)]
pub(crate) struct SuperblockCache {
    entries: Vec<Option<Box<Superblock>>>,
    /// `covers[word]` = entry PCs of blocks compiled from that word.
    covers: Vec<Vec<u16>>,
    /// Generation of the last write to each word.
    word_gen: Vec<u64>,
    /// Monotonic invalidation-event counter.
    generation: u64,
    hot: Vec<u16>,
    compiled: u64,
    invalidated: u64,
    pub entered: u64,
    pub block_steps: u64,
}

impl SuperblockCache {
    pub fn new(text_len: usize) -> Self {
        SuperblockCache {
            entries: vec![None; text_len],
            covers: vec![Vec::new(); text_len],
            word_gen: vec![0; text_len],
            generation: 0,
            hot: vec![0; text_len],
            compiled: 0,
            invalidated: 0,
            entered: 0,
            block_steps: 0,
        }
    }

    /// Current generation, stamped into blocks at compile time.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Primes entry PCs to the hotness threshold so they compile on
    /// first dispatch (PECOS seeds CFI-block heads here).
    pub fn seed(&mut self, entries: &[u16]) {
        for &pc in entries {
            if let Some(h) = self.hot.get_mut(pc as usize) {
                *h = HOT_THRESHOLD;
            }
        }
    }

    /// Records a dispatch to an uncompiled entry; true once the PC is
    /// hot enough to compile.
    pub fn note_miss(&mut self, pc: u16) -> bool {
        match self.hot.get_mut(pc as usize) {
            Some(h) => {
                *h = h.saturating_add(1);
                *h >= HOT_THRESHOLD
            }
            None => false,
        }
    }

    /// True when a (possibly stale) block is stored at `pc`.
    pub fn has_entry(&self, pc: u16) -> bool {
        matches!(self.entries.get(pc as usize), Some(Some(_)))
    }

    /// Registers a freshly compiled block.
    pub fn insert(&mut self, block: Box<Superblock>) {
        let entry = block.entry;
        self.remove(entry); // defensive: note_miss only fires on misses
        for &w in block.words.iter() {
            self.covers[w as usize].push(entry);
        }
        self.compiled += 1;
        self.entries[entry as usize] = Some(block);
    }

    /// Borrows the block at `pc` for execution — only if every input
    /// word's write generation is no newer than the block's compile
    /// generation (the stale-plan firewall). A stale block found here
    /// is discarded instead.
    pub fn entry_for_exec(&mut self, pc: u16) -> Option<&Superblock> {
        let stale = match self.entries.get(pc as usize)? {
            Some(block) => block.words.iter().any(|&w| self.word_gen[w as usize] > block.gen),
            None => return None,
        };
        if stale {
            // Unreachable while the eager cover index is exact, but a
            // stale plan must never fire.
            debug_assert!(false, "superblock survived invalidation at pc {pc}");
            self.remove(pc);
            return None;
        }
        self.entries[pc as usize].as_deref()
    }

    /// Drops the block at `entry`, scrubbing its cover references.
    fn remove(&mut self, entry: u16) {
        if let Some(block) = self.entries[entry as usize].take() {
            self.scrub_covers(&block);
            self.invalidated += 1;
        }
    }

    fn scrub_covers(&mut self, block: &Superblock) {
        for &w in block.words.iter() {
            self.covers[w as usize].retain(|&e| e != block.entry);
        }
    }

    /// Word-write invalidation: bumps the generation, stamps the word,
    /// and eagerly removes every block compiled from it.
    pub fn invalidate_word(&mut self, addr: usize) {
        self.generation += 1;
        if addr >= self.entries.len() {
            return;
        }
        self.word_gen[addr] = self.generation;
        let covering = std::mem::take(&mut self.covers[addr]);
        for entry in covering {
            self.remove(entry);
        }
    }

    /// Conservative full invalidation (the `text_mut` escape hatch).
    pub fn invalidate_all(&mut self) {
        self.generation += 1;
        self.word_gen.fill(self.generation);
        for slot in &mut self.entries {
            if slot.take().is_some() {
                self.invalidated += 1;
            }
        }
        for c in &mut self.covers {
            c.clear();
        }
    }

    /// Activity snapshot for CLI/bench reports.
    pub fn stats(&self) -> SuperblockStats {
        let blocks = self
            .entries
            .iter()
            .flatten()
            .map(|b| SuperblockInfo {
                entry: b.entry,
                ops: b.ops.len(),
                steps: b.total_steps,
                exit: b.exit.name(),
            })
            .collect();
        SuperblockStats {
            compiled: self.compiled,
            invalidated: self.invalidated,
            entered: self.entered,
            block_steps: self.block_steps,
            blocks,
        }
    }
}

/// Compiles the superblock entered at `entry` against the current
/// text. Always yields at least one op (the entry word is in text).
pub(crate) fn compile(
    dc: &mut DecodedCache,
    text: &[u32],
    entry: u16,
    gen: u64,
) -> Box<Superblock> {
    let mut ops: Vec<Op> = Vec::new();
    let mut aux: Vec<Aux> = Vec::new();
    let mut words: Vec<u16> = Vec::new();
    let mut compiled: Vec<u16> = Vec::new();
    let mut pc = entry;
    let exit;

    let base =
        |exec: OpFn, pc: u16| Op { exec, pc, out_pc: pc, weight: 1, rd: 0, rs: 0, rt: 0, imm: 0 };

    loop {
        if ops.len() >= MAX_OPS {
            exit = ExitKind::ChainLimit;
            break;
        }
        if pc as usize >= text.len() {
            exit = ExitKind::OutOfText;
            break;
        }
        if compiled.contains(&pc) {
            exit = ExitKind::Loop;
            break;
        }

        // An installed fused assertion block starting here is embedded
        // as one op when its plan is ready; otherwise (unfusable,
        // stale-unbuildable, or a table whose build fault the slow
        // path must raise) the region compiles word-at-a-time below,
        // exactly as the interpreter would execute it.
        if let Some(idx) = dc.region_starting_at(pc) {
            let (start, end) = dc.region(idx);
            let fused = match dc.plan(text, idx) {
                PlanSlot::Ready(FusedPlan::Static { r11, r12, pass }) => {
                    words.extend(start..=end); // plan reads the CFI word too
                    Some((Aux::FusedStatic { r11, r12, pass }, !pass))
                }
                PlanSlot::Ready(FusedPlan::StackTable { table }) => {
                    embed_table(dc, text, table, &mut words)
                        .map(|t| (Aux::FusedStackTable { table: t }, false))
                }
                PlanSlot::Ready(FusedPlan::RegTable { src, table }) => {
                    embed_table(dc, text, table, &mut words)
                        .map(|t| (Aux::FusedRegTable { src, table: t }, false))
                }
                _ => None,
            };
            if let Some((data, always_fails)) = fused {
                words.extend(start..end);
                compiled.extend(start..end);
                let idx = aux.len() as i64;
                aux.push(data);
                let mut op = base(op_fused, start);
                op.out_pc = end - 1;
                op.weight = end - start;
                op.imm = idx;
                ops.push(op);
                if always_fails {
                    exit = ExitKind::FusedFail;
                    break;
                }
                pc = end; // chain on through the protected CFI
                continue;
            }
        }

        let word = text[pc as usize];
        compiled.push(pc);
        words.push(pc);
        let Some(inst) = dc.decode_at(pc as usize, word) else {
            ops.push(base(op_illegal, pc));
            exit = ExitKind::Poisoned;
            break;
        };
        let next_pc = pc.wrapping_add(1);
        use Inst::*;
        match inst {
            Nop => {
                ops.push(base(op_nop, pc));
                pc = next_pc;
            }
            Halt => {
                ops.push(base(op_halt, pc));
                exit = ExitKind::Halt;
                break;
            }
            Movi { rd, imm } => {
                let mut op = base(op_movi, pc);
                op.rd = rd & 0xF;
                op.imm = i64::from(imm);
                ops.push(op);
                pc = next_pc;
            }
            Mov { rd, rs } => {
                ops.push(rrr(base(op_mov, pc), rd, rs, 0));
                pc = next_pc;
            }
            Add { rd, rs, rt } => {
                ops.push(rrr(base(op_add, pc), rd, rs, rt));
                pc = next_pc;
            }
            Sub { rd, rs, rt } => {
                ops.push(rrr(base(op_sub, pc), rd, rs, rt));
                pc = next_pc;
            }
            Mul { rd, rs, rt } => {
                ops.push(rrr(base(op_mul, pc), rd, rs, rt));
                pc = next_pc;
            }
            Divu { rd, rs, rt } => {
                ops.push(rrr(base(op_divu, pc), rd, rs, rt));
                pc = next_pc;
            }
            And { rd, rs, rt } => {
                ops.push(rrr(base(op_and, pc), rd, rs, rt));
                pc = next_pc;
            }
            Or { rd, rs, rt } => {
                ops.push(rrr(base(op_or, pc), rd, rs, rt));
                pc = next_pc;
            }
            Xor { rd, rs, rt } => {
                ops.push(rrr(base(op_xor, pc), rd, rs, rt));
                pc = next_pc;
            }
            Addi { rd, rs, imm } => {
                let mut op = rrr(base(op_addi, pc), rd, rs, 0);
                op.imm = i64::from(imm);
                ops.push(op);
                pc = next_pc;
            }
            Andi { rd, rs, imm } => {
                let mut op = rrr(base(op_andi, pc), rd, rs, 0);
                op.imm = i64::from(imm);
                ops.push(op);
                pc = next_pc;
            }
            Seqz { rd, rs } => {
                ops.push(rrr(base(op_seqz, pc), rd, rs, 0));
                pc = next_pc;
            }
            Ld { rd, rs, imm } => {
                let mut op = rrr(base(op_ld, pc), rd, rs, 0);
                op.imm = i64::from(imm);
                ops.push(op);
                pc = next_pc;
            }
            St { rs, rt, imm } => {
                let mut op = rrr(base(op_st, pc), 0, rs, rt);
                op.imm = i64::from(imm);
                ops.push(op);
                pc = next_pc;
            }
            Ldt { rd, addr } => {
                let mut op = rrr(base(op_ldt, pc), rd, 0, 0);
                op.imm = i64::from(addr);
                ops.push(op);
                pc = next_pc;
            }
            // Unconditional transfers retire one step and chain: the
            // loop head terminates the block if the target leaves the
            // text, revisits this block, or busts the op cap — with
            // `fallthrough` already pointing at the target.
            Jmp { addr } => {
                ops.push(base(op_skip, pc));
                pc = addr;
            }
            Call { addr } => {
                ops.push(base(op_call, pc));
                pc = addr;
            }
            Beq { rs, rt, addr } => {
                ops.push(branch(base(op_beq, pc), rs, rt, addr));
                exit = ExitKind::Branch;
                break;
            }
            Bne { rs, rt, addr } => {
                ops.push(branch(base(op_bne, pc), rs, rt, addr));
                exit = ExitKind::Branch;
                break;
            }
            Blt { rs, rt, addr } => {
                ops.push(branch(base(op_blt, pc), rs, rt, addr));
                exit = ExitKind::Branch;
                break;
            }
            Bge { rs, rt, addr } => {
                ops.push(branch(base(op_bge, pc), rs, rt, addr));
                exit = ExitKind::Branch;
                break;
            }
            Ret => {
                ops.push(base(op_ret, pc));
                exit = ExitKind::Indirect;
                break;
            }
            Callr { rs } => {
                ops.push(rrr(base(op_callr, pc), 0, rs, 0));
                exit = ExitKind::Indirect;
                break;
            }
            Jr { rs } => {
                ops.push(rrr(base(op_jr, pc), 0, rs, 0));
                exit = ExitKind::Indirect;
                break;
            }
            Sys { num } => {
                let mut op = base(op_sys, pc);
                op.rd = num;
                ops.push(op);
                pc = next_pc;
                exit = ExitKind::Syscall;
                break;
            }
            Pckt { rs, table } => {
                let entry = dc.table(text, table);
                let span = entry.span;
                let data = match &entry.result {
                    Ok(members) => TableData::Members(members.clone().into_boxed_slice()),
                    Err(kind) => TableData::Fault(*kind),
                };
                if (table as usize) < text.len() {
                    words.extend(table..=table + span as u16);
                }
                let idx = aux.len() as i64;
                aux.push(Aux::Pckt { table: data });
                let mut op = rrr(base(op_pckt, pc), 0, rs, 0);
                op.imm = idx;
                ops.push(op);
                pc = next_pc;
                exit = ExitKind::TableCheck;
                break;
            }
        }
    }

    words.sort_unstable();
    words.dedup();
    let total_steps = ops.iter().map(|o| u64::from(o.weight)).sum();
    Box::new(Superblock {
        entry,
        ops: ops.into_boxed_slice(),
        aux: aux.into_boxed_slice(),
        words: words.into_boxed_slice(),
        total_steps,
        fallthrough: pc,
        exit,
        gen,
    })
}

fn rrr(mut op: Op, rd: u8, rs: u8, rt: u8) -> Op {
    op.rd = rd & 0xF;
    op.rs = rs & 0xF;
    op.rt = rt & 0xF;
    op
}

fn branch(mut op: Op, rs: u8, rt: u8, addr: u16) -> Op {
    op = rrr(op, 0, rs, rt);
    op.imm = i64::from(addr);
    op
}

/// Materializes a fused plan's table for embedding, recording its
/// dependency words. `None` when the build fault is one the slow path
/// must raise itself (text-fault kinds), in which case the region
/// compiles word-at-a-time instead.
fn embed_table(
    dc: &mut DecodedCache,
    text: &[u32],
    table: u16,
    words: &mut Vec<u16>,
) -> Option<TableData> {
    let entry = dc.table(text, table);
    let span = entry.span;
    let data = match &entry.result {
        Ok(members) => TableData::Members(members.clone().into_boxed_slice()),
        // A corrupted count is a failed assertion: membership is
        // simply always false.
        Err(ExceptionKind::DivideByZero) => TableData::Fault(ExceptionKind::DivideByZero),
        Err(_) => return None,
    };
    if (table as usize) < text.len() {
        words.extend(table..=table + span as u16);
    }
    Some(data)
}

// ---------------------------------------------------------------- ops

#[inline]
fn reg(c: &OpCtx<'_>, r: u8) -> u64 {
    c.regs[(r & 0xF) as usize]
}

fn op_nop(_c: &mut OpCtx<'_>, _op: &Op) -> Flow {
    Flow::Next
}

/// A chained `jmp`: the transfer is compiled away, only the retired
/// step remains.
fn op_skip(_c: &mut OpCtx<'_>, _op: &Op) -> Flow {
    Flow::Next
}

fn op_halt(_c: &mut OpCtx<'_>, _op: &Op) -> Flow {
    Flow::Halt
}

fn op_illegal(_c: &mut OpCtx<'_>, op: &Op) -> Flow {
    Flow::Fault(op.pc, ExceptionKind::IllegalInstruction)
}

fn op_movi(c: &mut OpCtx<'_>, op: &Op) -> Flow {
    c.regs[op.rd as usize & 0xF] = op.imm as u64;
    Flow::Next
}

fn op_mov(c: &mut OpCtx<'_>, op: &Op) -> Flow {
    c.regs[op.rd as usize & 0xF] = reg(c, op.rs);
    Flow::Next
}

fn op_add(c: &mut OpCtx<'_>, op: &Op) -> Flow {
    c.regs[op.rd as usize & 0xF] = reg(c, op.rs).wrapping_add(reg(c, op.rt));
    Flow::Next
}

fn op_sub(c: &mut OpCtx<'_>, op: &Op) -> Flow {
    c.regs[op.rd as usize & 0xF] = reg(c, op.rs).wrapping_sub(reg(c, op.rt));
    Flow::Next
}

fn op_mul(c: &mut OpCtx<'_>, op: &Op) -> Flow {
    c.regs[op.rd as usize & 0xF] = reg(c, op.rs).wrapping_mul(reg(c, op.rt));
    Flow::Next
}

fn op_divu(c: &mut OpCtx<'_>, op: &Op) -> Flow {
    let divisor = reg(c, op.rt);
    if divisor == 0 {
        return Flow::Fault(op.pc, ExceptionKind::DivideByZero);
    }
    c.regs[op.rd as usize & 0xF] = reg(c, op.rs) / divisor;
    Flow::Next
}

fn op_and(c: &mut OpCtx<'_>, op: &Op) -> Flow {
    c.regs[op.rd as usize & 0xF] = reg(c, op.rs) & reg(c, op.rt);
    Flow::Next
}

fn op_or(c: &mut OpCtx<'_>, op: &Op) -> Flow {
    c.regs[op.rd as usize & 0xF] = reg(c, op.rs) | reg(c, op.rt);
    Flow::Next
}

fn op_xor(c: &mut OpCtx<'_>, op: &Op) -> Flow {
    c.regs[op.rd as usize & 0xF] = reg(c, op.rs) ^ reg(c, op.rt);
    Flow::Next
}

fn op_addi(c: &mut OpCtx<'_>, op: &Op) -> Flow {
    c.regs[op.rd as usize & 0xF] = reg(c, op.rs).wrapping_add(op.imm as u64);
    Flow::Next
}

fn op_andi(c: &mut OpCtx<'_>, op: &Op) -> Flow {
    c.regs[op.rd as usize & 0xF] = reg(c, op.rs) & op.imm as u64;
    Flow::Next
}

fn op_seqz(c: &mut OpCtx<'_>, op: &Op) -> Flow {
    c.regs[op.rd as usize & 0xF] = (reg(c, op.rs) == 0) as u64;
    Flow::Next
}

#[inline]
fn mem_addr(base: u64, off: i64) -> Result<usize, Flow> {
    let addr = base as i64 + off;
    if addr < 0 || addr >= DATA_WORDS as i64 {
        return Err(Flow::Fault(0, ExceptionKind::MemoryFault { addr }));
    }
    Ok(addr as usize)
}

fn op_ld(c: &mut OpCtx<'_>, op: &Op) -> Flow {
    match mem_addr(reg(c, op.rs), op.imm) {
        Ok(addr) => {
            c.regs[op.rd as usize & 0xF] = c.data[addr];
            Flow::Next
        }
        Err(f) => at_pc(f, op.pc),
    }
}

fn op_st(c: &mut OpCtx<'_>, op: &Op) -> Flow {
    match mem_addr(reg(c, op.rs), op.imm) {
        Ok(addr) => {
            c.data[addr] = reg(c, op.rt);
            Flow::Next
        }
        Err(f) => at_pc(f, op.pc),
    }
}

fn op_ldt(c: &mut OpCtx<'_>, op: &Op) -> Flow {
    let addr = op.imm as usize;
    let Some(&w) = c.text.get(addr) else {
        return Flow::Fault(op.pc, ExceptionKind::TextFault { addr: addr as u32 });
    };
    c.regs[op.rd as usize & 0xF] = u64::from(w);
    Flow::Next
}

fn op_call(c: &mut OpCtx<'_>, op: &Op) -> Flow {
    let sp = c.regs[15].wrapping_sub(1);
    match mem_addr(sp, 0) {
        Ok(slot) => {
            c.data[slot] = u64::from(op.pc.wrapping_add(1));
            c.regs[15] = sp;
            Flow::Next
        }
        Err(f) => at_pc(f, op.pc),
    }
}

fn op_ret(c: &mut OpCtx<'_>, op: &Op) -> Flow {
    let sp = c.regs[15];
    match mem_addr(sp, 0) {
        Ok(slot) => {
            let ra = c.data[slot];
            c.regs[15] = sp.wrapping_add(1);
            c.pc = ra as u16;
            Flow::Done
        }
        Err(f) => at_pc(f, op.pc),
    }
}

fn op_callr(c: &mut OpCtx<'_>, op: &Op) -> Flow {
    let target = reg(c, op.rs) as u16;
    let sp = c.regs[15].wrapping_sub(1);
    match mem_addr(sp, 0) {
        Ok(slot) => {
            c.data[slot] = u64::from(op.pc.wrapping_add(1));
            c.regs[15] = sp;
            c.pc = target;
            Flow::Done
        }
        Err(f) => at_pc(f, op.pc),
    }
}

fn op_jr(c: &mut OpCtx<'_>, op: &Op) -> Flow {
    c.pc = reg(c, op.rs) as u16;
    Flow::Done
}

fn op_beq(c: &mut OpCtx<'_>, op: &Op) -> Flow {
    c.pc = if reg(c, op.rs) == reg(c, op.rt) { op.imm as u16 } else { op.pc.wrapping_add(1) };
    Flow::Done
}

fn op_bne(c: &mut OpCtx<'_>, op: &Op) -> Flow {
    c.pc = if reg(c, op.rs) != reg(c, op.rt) { op.imm as u16 } else { op.pc.wrapping_add(1) };
    Flow::Done
}

fn op_blt(c: &mut OpCtx<'_>, op: &Op) -> Flow {
    c.pc = if reg(c, op.rs) < reg(c, op.rt) { op.imm as u16 } else { op.pc.wrapping_add(1) };
    Flow::Done
}

fn op_bge(c: &mut OpCtx<'_>, op: &Op) -> Flow {
    c.pc = if reg(c, op.rs) >= reg(c, op.rt) { op.imm as u16 } else { op.pc.wrapping_add(1) };
    Flow::Done
}

fn op_sys(c: &mut OpCtx<'_>, op: &Op) -> Flow {
    let req = SyscallRequest {
        thread: c.tid,
        num: op.rd,
        args: [c.regs[1], c.regs[2], c.regs[3], c.regs[4], c.regs[5], c.regs[6]],
    };
    c.regs[1] = c.sys.handle(req);
    Flow::Next
}

fn op_pckt(c: &mut OpCtx<'_>, op: &Op) -> Flow {
    let Aux::Pckt { table } = &c.aux[op.imm as usize] else {
        return Flow::Deopt; // unreachable by construction
    };
    if let TableData::Fault(kind) = table {
        return Flow::Fault(op.pc, *kind);
    }
    let value = reg(c, op.rs) as u32;
    if table.contains(value) {
        Flow::Next
    } else {
        Flow::Fault(op.pc, ExceptionKind::DivideByZero)
    }
}

/// An embedded fused assertion block: retires the whole region,
/// producing the identical scratch-register finals, fault PC and step
/// counts as word-at-a-time execution of the block.
fn op_fused(c: &mut OpCtx<'_>, op: &Op) -> Flow {
    let fail_pc = op.out_pc; // region end - 1, the fused `divu`/`pckt`
    let pass = match &c.aux[op.imm as usize] {
        Aux::FusedStatic { r11, r12, pass } => {
            if let Some(v) = r11 {
                c.regs[11] = *v;
            }
            c.regs[12] = *r12;
            c.regs[13] = u64::from(*pass);
            *pass
        }
        Aux::FusedStackTable { table } => {
            let sp = c.regs[15];
            if sp as i64 >= DATA_WORDS as i64 || (sp as i64) < 0 {
                return Flow::Deopt; // the region's `ld` would fault
            }
            let value = c.data[sp as usize];
            c.regs[12] = value;
            table.contains(value as u32)
        }
        Aux::FusedRegTable { src, table } => {
            let value = reg(c, *src);
            c.regs[12] = value;
            table.contains(value as u32)
        }
        Aux::Pckt { .. } => return Flow::Deopt, // unreachable by construction
    };
    c.supersteps += 1;
    if pass {
        Flow::Next
    } else {
        Flow::Fault(fail_pc, ExceptionKind::DivideByZero)
    }
}

fn at_pc(f: Flow, pc: u16) -> Flow {
    match f {
        Flow::Fault(_, kind) => Flow::Fault(pc, kind),
        other => other,
    }
}
