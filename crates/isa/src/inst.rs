//! The instruction set and its 32-bit encoding.
//!
//! Encoding layout (bit 31 is the most significant):
//!
//! ```text
//! | 31..24 opcode | 23..20 A | 19..16 B | 15..12 C | 11..0 unused |
//! | 31..24 opcode | 23..20 A | 19..16 B | 15..0  imm16           |
//! ```
//!
//! Field `A` is usually the destination register, `B`/`C` are sources.
//! Control-flow instructions keep their target address in the low 16
//! bits (`imm16`), which is what a PECOS assertion block extracts at
//! run time with [`TARGET_MASK`] to validate the *actual bits* of the
//! upcoming jump before it executes.

use std::fmt;

/// Bit position of the opcode field.
pub const OPCODE_SHIFT: u32 = 24;

/// Mask selecting the 16-bit target/immediate field of an encoded
/// instruction.
pub const TARGET_MASK: u32 = 0xFFFF;

/// Errors from [`decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The opcode byte does not name an instruction.
    BadOpcode(u8),
    /// A reserved (unused) bit is set.
    ReservedBits(u32),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadOpcode(op) => write!(f, "illegal opcode {op:#04x}"),
            DecodeError::ReservedBits(word) => {
                write!(f, "reserved bits set in instruction word {word:#010x}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// One machine instruction. Registers are encoded 0–15.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Inst {
    /// No operation.
    Nop,
    /// Stop the executing thread normally.
    Halt,
    /// `rd ← imm` (zero-extended 16-bit immediate).
    Movi {
        /// Destination register.
        rd: u8,
        /// Immediate value.
        imm: u16,
    },
    /// `rd ← rs`.
    Mov {
        /// Destination register.
        rd: u8,
        /// Source register.
        rs: u8,
    },
    /// `rd ← rs + rt` (wrapping).
    Add {
        /// Destination register.
        rd: u8,
        /// First source.
        rs: u8,
        /// Second source.
        rt: u8,
    },
    /// `rd ← rs - rt` (wrapping).
    Sub {
        /// Destination register.
        rd: u8,
        /// First source.
        rs: u8,
        /// Second source.
        rt: u8,
    },
    /// `rd ← rs * rt` (wrapping).
    Mul {
        /// Destination register.
        rd: u8,
        /// First source.
        rs: u8,
        /// Second source.
        rt: u8,
    },
    /// `rd ← rs / rt`; raises a divide-by-zero exception when
    /// `rt == 0`. PECOS assertion blocks end in this instruction.
    Divu {
        /// Destination register.
        rd: u8,
        /// Dividend.
        rs: u8,
        /// Divisor.
        rt: u8,
    },
    /// `rd ← rs & rt`.
    And {
        /// Destination register.
        rd: u8,
        /// First source.
        rs: u8,
        /// Second source.
        rt: u8,
    },
    /// `rd ← rs | rt`.
    Or {
        /// Destination register.
        rd: u8,
        /// First source.
        rs: u8,
        /// Second source.
        rt: u8,
    },
    /// `rd ← rs ^ rt`.
    Xor {
        /// Destination register.
        rd: u8,
        /// First source.
        rs: u8,
        /// Second source.
        rt: u8,
    },
    /// `rd ← rs + imm` (sign-extended 16-bit immediate, wrapping).
    Addi {
        /// Destination register.
        rd: u8,
        /// Source register.
        rs: u8,
        /// Signed immediate.
        imm: i16,
    },
    /// `rd ← rs & imm` (zero-extended).
    Andi {
        /// Destination register.
        rd: u8,
        /// Source register.
        rs: u8,
        /// Immediate mask.
        imm: u16,
    },
    /// `rd ← (rs == 0) ? 1 : 0` — the logical NOT of the PECOS
    /// signature formula.
    Seqz {
        /// Destination register.
        rd: u8,
        /// Source register.
        rs: u8,
    },
    /// `rd ← mem[rs + imm]` (per-thread data memory, word addressed).
    Ld {
        /// Destination register.
        rd: u8,
        /// Base register.
        rs: u8,
        /// Signed word offset.
        imm: i16,
    },
    /// `mem[rs + imm] ← rt`.
    St {
        /// Base register.
        rs: u8,
        /// Source register.
        rt: u8,
        /// Signed word offset.
        imm: i16,
    },
    /// `rd ← text[imm]` — load a word from the text segment. Used by
    /// assertion blocks to read the actual bits of the protected CFI.
    Ldt {
        /// Destination register.
        rd: u8,
        /// Text address.
        addr: u16,
    },
    /// Unconditional jump (CFI).
    Jmp {
        /// Target text address.
        addr: u16,
    },
    /// Branch if `rs == rt` (CFI).
    Beq {
        /// First comparand.
        rs: u8,
        /// Second comparand.
        rt: u8,
        /// Target text address.
        addr: u16,
    },
    /// Branch if `rs != rt` (CFI).
    Bne {
        /// First comparand.
        rs: u8,
        /// Second comparand.
        rt: u8,
        /// Target text address.
        addr: u16,
    },
    /// Branch if `rs < rt` (unsigned, CFI).
    Blt {
        /// First comparand.
        rs: u8,
        /// Second comparand.
        rt: u8,
        /// Target text address.
        addr: u16,
    },
    /// Branch if `rs >= rt` (unsigned, CFI).
    Bge {
        /// First comparand.
        rs: u8,
        /// Second comparand.
        rt: u8,
        /// Target text address.
        addr: u16,
    },
    /// Push the return address and jump (CFI).
    Call {
        /// Target text address.
        addr: u16,
    },
    /// Pop the return address and jump to it (CFI with a
    /// runtime-determined target).
    Ret,
    /// Indirect call through a register (CFI with a
    /// runtime-determined target; models function pointers and dynamic
    /// library calls).
    Callr {
        /// Register holding the target address.
        rs: u8,
    },
    /// Indirect jump through a register (CFI with a
    /// runtime-determined target).
    Jr {
        /// Register holding the target address.
        rs: u8,
    },
    /// System call; the handler receives `num` and the argument
    /// registers.
    Sys {
        /// Syscall number.
        num: u8,
    },
    /// PECOS table check: raise divide-by-zero unless the value of
    /// `rs` is a member of the target table at text address `table`
    /// (layout: `count, target0, target1, …`).
    Pckt {
        /// Register holding the runtime target address.
        rs: u8,
        /// Text address of the valid-target table.
        table: u16,
    },
}

impl Inst {
    /// True for control-flow instructions — the instructions PECOS
    /// protects with assertion blocks.
    pub fn is_cfi(self) -> bool {
        matches!(
            self,
            Inst::Jmp { .. }
                | Inst::Beq { .. }
                | Inst::Bne { .. }
                | Inst::Blt { .. }
                | Inst::Bge { .. }
                | Inst::Call { .. }
                | Inst::Ret
                | Inst::Callr { .. }
                | Inst::Jr { .. }
        )
    }

    /// The statically encoded target of a CFI, if it has one.
    pub fn static_target(self) -> Option<u16> {
        match self {
            Inst::Jmp { addr }
            | Inst::Beq { addr, .. }
            | Inst::Bne { addr, .. }
            | Inst::Blt { addr, .. }
            | Inst::Bge { addr, .. }
            | Inst::Call { addr } => Some(addr),
            _ => None,
        }
    }
}

const fn r3(op: u8, a: u8, b: u8, c: u8) -> u32 {
    ((op as u32) << OPCODE_SHIFT)
        | (((a & 0xF) as u32) << 20)
        | (((b & 0xF) as u32) << 16)
        | (((c & 0xF) as u32) << 12)
}

const fn ri(op: u8, a: u8, b: u8, imm: u16) -> u32 {
    ((op as u32) << OPCODE_SHIFT)
        | (((a & 0xF) as u32) << 20)
        | (((b & 0xF) as u32) << 16)
        | imm as u32
}

/// Encodes an instruction into its 32-bit word.
pub fn encode(inst: Inst) -> u32 {
    match inst {
        Inst::Nop => ri(0x00, 0, 0, 0),
        Inst::Halt => ri(0x01, 0, 0, 0),
        Inst::Movi { rd, imm } => ri(0x02, rd, 0, imm),
        Inst::Mov { rd, rs } => r3(0x03, rd, rs, 0),
        Inst::Add { rd, rs, rt } => r3(0x04, rd, rs, rt),
        Inst::Sub { rd, rs, rt } => r3(0x05, rd, rs, rt),
        Inst::Mul { rd, rs, rt } => r3(0x06, rd, rs, rt),
        Inst::Divu { rd, rs, rt } => r3(0x07, rd, rs, rt),
        Inst::And { rd, rs, rt } => r3(0x08, rd, rs, rt),
        Inst::Or { rd, rs, rt } => r3(0x09, rd, rs, rt),
        Inst::Xor { rd, rs, rt } => r3(0x0A, rd, rs, rt),
        Inst::Addi { rd, rs, imm } => ri(0x0C, rd, rs, imm as u16),
        Inst::Seqz { rd, rs } => r3(0x0D, rd, rs, 0),
        Inst::Andi { rd, rs, imm } => ri(0x0F, rd, rs, imm),
        Inst::Ld { rd, rs, imm } => ri(0x10, rd, rs, imm as u16),
        Inst::St { rs, rt, imm } => ri(0x11, rs, rt, imm as u16),
        Inst::Ldt { rd, addr } => ri(0x12, rd, 0, addr),
        Inst::Jmp { addr } => ri(0x20, 0, 0, addr),
        Inst::Beq { rs, rt, addr } => ri(0x21, rs, rt, addr),
        Inst::Bne { rs, rt, addr } => ri(0x22, rs, rt, addr),
        Inst::Blt { rs, rt, addr } => ri(0x23, rs, rt, addr),
        Inst::Bge { rs, rt, addr } => ri(0x24, rs, rt, addr),
        Inst::Call { addr } => ri(0x25, 0, 0, addr),
        Inst::Ret => ri(0x26, 0, 0, 0),
        Inst::Callr { rs } => r3(0x27, 0, rs, 0),
        Inst::Jr { rs } => r3(0x28, 0, rs, 0),
        Inst::Sys { num } => ri(0x30, 0, 0, num as u16),
        Inst::Pckt { rs, table } => ri(0x31, 0, rs, table),
    }
}

/// Decodes a 32-bit word into an instruction.
///
/// Decoding is **strict**: reserved bits must be zero, as on a densely
/// encoded real ISA. A bit flip landing in an unused field therefore
/// raises an illegal-instruction exception instead of being silently
/// ignored — which is what makes instruction-stream fault injection
/// behave realistically.
///
/// # Errors
///
/// Returns [`DecodeError::BadOpcode`] for opcode bytes that name no
/// instruction and [`DecodeError::ReservedBits`] for set bits in
/// unused fields.
pub fn decode(word: u32) -> Result<Inst, DecodeError> {
    let inst = decode_fields(word)?;
    if encode(inst) != word {
        return Err(DecodeError::ReservedBits(word));
    }
    Ok(inst)
}

fn decode_fields(word: u32) -> Result<Inst, DecodeError> {
    let op = (word >> OPCODE_SHIFT) as u8;
    let a = ((word >> 20) & 0xF) as u8;
    let b = ((word >> 16) & 0xF) as u8;
    let c = ((word >> 12) & 0xF) as u8;
    let imm = (word & 0xFFFF) as u16;
    Ok(match op {
        0x00 => Inst::Nop,
        0x01 => Inst::Halt,
        0x02 => Inst::Movi { rd: a, imm },
        0x03 => Inst::Mov { rd: a, rs: b },
        0x04 => Inst::Add { rd: a, rs: b, rt: c },
        0x05 => Inst::Sub { rd: a, rs: b, rt: c },
        0x06 => Inst::Mul { rd: a, rs: b, rt: c },
        0x07 => Inst::Divu { rd: a, rs: b, rt: c },
        0x08 => Inst::And { rd: a, rs: b, rt: c },
        0x09 => Inst::Or { rd: a, rs: b, rt: c },
        0x0A => Inst::Xor { rd: a, rs: b, rt: c },
        0x0C => Inst::Addi { rd: a, rs: b, imm: imm as i16 },
        0x0D => Inst::Seqz { rd: a, rs: b },
        0x0F => Inst::Andi { rd: a, rs: b, imm },
        0x10 => Inst::Ld { rd: a, rs: b, imm: imm as i16 },
        0x11 => Inst::St { rs: a, rt: b, imm: imm as i16 },
        0x12 => Inst::Ldt { rd: a, addr: imm },
        0x20 => Inst::Jmp { addr: imm },
        0x21 => Inst::Beq { rs: a, rt: b, addr: imm },
        0x22 => Inst::Bne { rs: a, rt: b, addr: imm },
        0x23 => Inst::Blt { rs: a, rt: b, addr: imm },
        0x24 => Inst::Bge { rs: a, rt: b, addr: imm },
        0x25 => Inst::Call { addr: imm },
        0x26 => Inst::Ret,
        0x27 => Inst::Callr { rs: b },
        0x28 => Inst::Jr { rs: b },
        0x30 => Inst::Sys { num: imm as u8 },
        0x31 => Inst::Pckt { rs: b, table: imm },
        other => return Err(DecodeError::BadOpcode(other)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_samples() -> Vec<Inst> {
        vec![
            Inst::Nop,
            Inst::Halt,
            Inst::Movi { rd: 3, imm: 0xBEEF },
            Inst::Mov { rd: 1, rs: 2 },
            Inst::Add { rd: 1, rs: 2, rt: 3 },
            Inst::Sub { rd: 4, rs: 5, rt: 6 },
            Inst::Mul { rd: 7, rs: 8, rt: 9 },
            Inst::Divu { rd: 10, rs: 11, rt: 12 },
            Inst::And { rd: 13, rs: 14, rt: 15 },
            Inst::Or { rd: 0, rs: 1, rt: 2 },
            Inst::Xor { rd: 3, rs: 4, rt: 5 },
            Inst::Addi { rd: 6, rs: 7, imm: -42 },
            Inst::Seqz { rd: 8, rs: 9 },
            Inst::Andi { rd: 10, rs: 11, imm: 0xFFFF },
            Inst::Ld { rd: 12, rs: 13, imm: 100 },
            Inst::St { rs: 14, rt: 15, imm: -1 },
            Inst::Ldt { rd: 1, addr: 500 },
            Inst::Jmp { addr: 1234 },
            Inst::Beq { rs: 1, rt: 2, addr: 10 },
            Inst::Bne { rs: 3, rt: 4, addr: 20 },
            Inst::Blt { rs: 5, rt: 6, addr: 30 },
            Inst::Bge { rs: 7, rt: 8, addr: 40 },
            Inst::Call { addr: 99 },
            Inst::Ret,
            Inst::Callr { rs: 5 },
            Inst::Jr { rs: 6 },
            Inst::Sys { num: 7 },
            Inst::Pckt { rs: 12, table: 600 },
        ]
    }

    #[test]
    fn encode_decode_round_trip() {
        for inst in all_samples() {
            let word = encode(inst);
            assert_eq!(decode(word), Ok(inst), "round trip failed for {inst:?}");
        }
    }

    #[test]
    fn cfi_classification() {
        let cfis: Vec<Inst> = all_samples().into_iter().filter(|i| i.is_cfi()).collect();
        assert_eq!(cfis.len(), 9);
        assert!(Inst::Jmp { addr: 0 }.is_cfi());
        assert!(!Inst::Pckt { rs: 0, table: 0 }.is_cfi(), "assertion checks add no CFIs");
        assert!(!Inst::Sys { num: 0 }.is_cfi());
    }

    #[test]
    fn static_targets() {
        assert_eq!(Inst::Jmp { addr: 7 }.static_target(), Some(7));
        assert_eq!(Inst::Beq { rs: 0, rt: 0, addr: 9 }.static_target(), Some(9));
        assert_eq!(Inst::Ret.static_target(), None);
        assert_eq!(Inst::Callr { rs: 1 }.static_target(), None);
    }

    #[test]
    fn target_lives_in_low_16_bits() {
        for inst in all_samples() {
            if let Some(t) = inst.static_target() {
                assert_eq!(encode(inst) & TARGET_MASK, t as u32);
            }
        }
    }

    #[test]
    fn bad_opcode_decodes_to_error() {
        let word = 0xFFu32 << OPCODE_SHIFT;
        assert_eq!(decode(word), Err(DecodeError::BadOpcode(0xFF)));
        let word = 0x0Bu32 << OPCODE_SHIFT; // gap in the opcode map
        assert!(decode(word).is_err());
    }

    #[test]
    fn register_fields_mask_to_four_bits() {
        let word = encode(Inst::Mov { rd: 31, rs: 18 });
        let decoded = decode(word).unwrap();
        assert_eq!(decoded, Inst::Mov { rd: 15, rs: 2 });
    }
}
