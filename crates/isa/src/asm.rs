//! Two-pass assembler over a symbolic AST.
//!
//! PECOS instruments *assembly*, not binaries — "the PECOS tool
//! instruments the application assembly code with Assertion Blocks
//! placed at the end of each basic block" — because only at the
//! symbolic level can inserted instructions shift addresses without
//! breaking label references. The AST here ([`Assembly`], [`Item`]) is
//! therefore public: the instrumenter parses, rewrites items, and
//! re-assembles.
//!
//! # Syntax
//!
//! ```text
//! ; comment (also '#')
//! label:
//!     movi r1, 42          ; rd, imm16 (or a label, resolved to its address)
//!     addi r1, r1, -1
//!     ld   r2, [r15+3]     ; data memory, word offsets
//!     st   [r15], r2
//!     beq  r1, r0, done
//!     call subroutine
//!     .targets f, g        ; valid-target declaration for the next indirect CFI
//!     callr r4
//!     sys  3
//! done:
//!     halt
//! table:
//!     .word 2
//!     .word some_label     ; label addresses may be embedded as data
//! ```

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use crate::inst::{encode, Inst};
use crate::program::Program;

/// An assembly-level error, with the 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based source line (0 for whole-program errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for AsmError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, AsmError> {
    Err(AsmError { line, message: message.into() })
}

/// A data word in the text stream (`.word`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WordValue {
    /// A literal value.
    Imm(u32),
    /// The address of a label.
    Label(String),
}

/// One item of an assembly listing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Item {
    /// A label binding to the next emitted word.
    Label(String),
    /// An instruction; `target` (when present) is a label to resolve
    /// into the instruction's 16-bit immediate/address field.
    Inst {
        /// Instruction template (address/immediate field may be a
        /// placeholder overwritten by `target` resolution).
        inst: Inst,
        /// Symbolic target to patch into the 16-bit field.
        target: Option<String>,
    },
    /// A raw data word in the text stream.
    Word(WordValue),
    /// `.targets` — declares the valid targets of the next indirect
    /// CFI for the instrumenter. Emits nothing.
    Targets(Vec<String>),
}

impl Item {
    /// Words this item contributes to the text segment.
    pub fn size(&self) -> u16 {
        match self {
            Item::Label(_) | Item::Targets(_) => 0,
            Item::Inst { .. } | Item::Word(_) => 1,
        }
    }
}

/// Patches a resolved 16-bit value into the immediate/address field of
/// an instruction template.
///
/// # Errors
///
/// Returns an error string if the instruction has no such field.
pub fn patch_imm16(inst: Inst, value: u16) -> Result<Inst, String> {
    Ok(match inst {
        Inst::Movi { rd, .. } => Inst::Movi { rd, imm: value },
        Inst::Andi { rd, rs, .. } => Inst::Andi { rd, rs, imm: value },
        Inst::Ldt { rd, .. } => Inst::Ldt { rd, addr: value },
        Inst::Jmp { .. } => Inst::Jmp { addr: value },
        Inst::Beq { rs, rt, .. } => Inst::Beq { rs, rt, addr: value },
        Inst::Bne { rs, rt, .. } => Inst::Bne { rs, rt, addr: value },
        Inst::Blt { rs, rt, .. } => Inst::Blt { rs, rt, addr: value },
        Inst::Bge { rs, rt, .. } => Inst::Bge { rs, rt, addr: value },
        Inst::Call { .. } => Inst::Call { addr: value },
        Inst::Pckt { rs, .. } => Inst::Pckt { rs, table: value },
        other => return Err(format!("{other:?} has no 16-bit field to patch")),
    })
}

/// A parsed assembly listing.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Assembly {
    /// The items in source order.
    pub items: Vec<Item>,
}

impl Assembly {
    /// Parses assembly source.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError`] with the offending line on any syntax
    /// problem.
    pub fn parse(src: &str) -> Result<Self, AsmError> {
        let mut items = Vec::new();
        for (i, raw) in src.lines().enumerate() {
            let line_no = i + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            let mut rest = line;
            // Leading labels (possibly several on one line).
            while let Some(colon) = rest.find(':') {
                let (head, tail) = rest.split_at(colon);
                let name = head.trim();
                if !is_ident(name) {
                    return err(line_no, format!("invalid label name {name:?}"));
                }
                items.push(Item::Label(name.to_owned()));
                rest = tail[1..].trim();
                if rest.is_empty() {
                    break;
                }
            }
            if rest.is_empty() {
                continue;
            }
            if let Some(dir) = rest.strip_prefix('.') {
                items.push(parse_directive(dir, line_no)?);
                continue;
            }
            items.push(parse_inst(rest, line_no)?);
        }
        Ok(Assembly { items })
    }

    /// Assembles the listing into a [`Program`].
    ///
    /// # Errors
    ///
    /// Returns [`AsmError`] for duplicate or unresolved labels, or a
    /// text segment exceeding the 16-bit address space.
    pub fn assemble(&self) -> Result<Program, AsmError> {
        // Pass 1: bind labels.
        let mut symbols: BTreeMap<String, u16> = BTreeMap::new();
        let mut addr: u32 = 0;
        for item in &self.items {
            if let Item::Label(name) = item {
                if symbols.insert(name.clone(), addr as u16).is_some() {
                    return err(0, format!("duplicate label {name:?}"));
                }
            }
            addr += item.size() as u32;
            if addr > u16::MAX as u32 + 1 {
                return err(0, "text segment exceeds 16-bit address space");
            }
        }
        // Pass 2: emit.
        let mut text = Vec::with_capacity(addr as usize);
        let resolve = |name: &str| -> Result<u16, AsmError> {
            symbols
                .get(name)
                .copied()
                .ok_or_else(|| AsmError { line: 0, message: format!("unresolved label {name:?}") })
        };
        for item in &self.items {
            match item {
                Item::Label(_) | Item::Targets(_) => {}
                Item::Word(WordValue::Imm(v)) => text.push(*v),
                Item::Word(WordValue::Label(name)) => text.push(resolve(name)? as u32),
                Item::Inst { inst, target } => {
                    let inst = match target {
                        Some(name) => patch_imm16(*inst, resolve(name)?)
                            .map_err(|m| AsmError { line: 0, message: m })?,
                        None => *inst,
                    };
                    text.push(encode(inst));
                }
            }
        }
        let entry = symbols.get("start").copied().unwrap_or(0);
        Ok(Program { text, symbols, entry })
    }
}

/// Parses and assembles in one call.
///
/// # Errors
///
/// See [`Assembly::parse`] and [`Assembly::assemble`].
pub fn assemble_source(src: &str) -> Result<Program, AsmError> {
    Assembly::parse(src)?.assemble()
}

fn strip_comment(line: &str) -> &str {
    match line.find([';', '#']) {
        Some(i) => &line[..i],
        None => line,
    }
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn parse_directive(dir: &str, line: usize) -> Result<Item, AsmError> {
    let (name, rest) = match dir.find(char::is_whitespace) {
        Some(i) => dir.split_at(i),
        None => (dir, ""),
    };
    match name {
        "word" => {
            let tok = rest.trim();
            if tok.is_empty() {
                return err(line, ".word needs a value");
            }
            if let Some(v) = parse_int(tok) {
                if v < 0 || v > u32::MAX as i64 {
                    return err(line, format!(".word value {v} out of range"));
                }
                Ok(Item::Word(WordValue::Imm(v as u32)))
            } else if is_ident(tok) {
                Ok(Item::Word(WordValue::Label(tok.to_owned())))
            } else {
                err(line, format!("invalid .word operand {tok:?}"))
            }
        }
        "targets" => {
            let labels: Vec<String> =
                rest.split(',').map(|s| s.trim().to_owned()).filter(|s| !s.is_empty()).collect();
            if labels.is_empty() || !labels.iter().all(|l| is_ident(l)) {
                return err(line, ".targets needs a comma-separated label list");
            }
            Ok(Item::Targets(labels))
        }
        other => err(line, format!("unknown directive .{other}")),
    }
}

fn parse_int(tok: &str) -> Option<i64> {
    let (neg, body) = match tok.strip_prefix('-') {
        Some(b) => (true, b),
        None => (false, tok),
    };
    let v = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16).ok()?
    } else {
        body.parse::<i64>().ok()?
    };
    if neg {
        v.checked_neg()
    } else {
        Some(v)
    }
}

fn parse_reg(tok: &str, line: usize) -> Result<u8, AsmError> {
    let body = tok
        .strip_prefix('r')
        .or_else(|| tok.strip_prefix('R'))
        .ok_or_else(|| AsmError { line, message: format!("expected register, got {tok:?}") })?;
    let n: u8 = body
        .parse()
        .map_err(|_| AsmError { line, message: format!("invalid register {tok:?}") })?;
    if n > 15 {
        return err(line, format!("register {tok} out of range (r0-r15)"));
    }
    Ok(n)
}

/// An operand for the immediate/label slot: either resolved now or
/// deferred to pass 2.
enum ImmOrLabel {
    Imm(i64),
    Label(String),
}

fn parse_imm_or_label(tok: &str, line: usize) -> Result<ImmOrLabel, AsmError> {
    if let Some(v) = parse_int(tok) {
        Ok(ImmOrLabel::Imm(v))
    } else if is_ident(tok) {
        Ok(ImmOrLabel::Label(tok.to_owned()))
    } else {
        err(line, format!("expected immediate or label, got {tok:?}"))
    }
}

fn imm_u16(v: i64, line: usize) -> Result<u16, AsmError> {
    if !(0..=u16::MAX as i64).contains(&v) {
        return err(line, format!("immediate {v} does not fit in unsigned 16 bits"));
    }
    Ok(v as u16)
}

fn imm_i16(v: i64, line: usize) -> Result<i16, AsmError> {
    if !(i16::MIN as i64..=i16::MAX as i64).contains(&v) {
        return err(line, format!("immediate {v} does not fit in signed 16 bits"));
    }
    Ok(v as i16)
}

/// Parses a `[rN]`, `[rN+k]` or `[rN-k]` memory operand.
fn parse_mem(tok: &str, line: usize) -> Result<(u8, i16), AsmError> {
    let inner = tok
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| AsmError { line, message: format!("expected [reg+off], got {tok:?}") })?;
    let (reg_part, off) = if let Some(i) = inner.find('+') {
        (
            &inner[..i],
            parse_int(&inner[i + 1..])
                .ok_or_else(|| AsmError { line, message: format!("invalid offset in {tok:?}") })?,
        )
    } else if let Some(i) = inner.get(1..).and_then(|s| s.find('-')).map(|i| i + 1) {
        (
            &inner[..i],
            parse_int(&inner[i + 1..])
                .and_then(i64::checked_neg)
                .ok_or_else(|| AsmError { line, message: format!("invalid offset in {tok:?}") })?,
        )
    } else {
        (inner, 0)
    };
    Ok((parse_reg(reg_part.trim(), line)?, imm_i16(off, line)?))
}

fn parse_inst(text: &str, line: usize) -> Result<Item, AsmError> {
    let (mnemonic, rest) = match text.find(char::is_whitespace) {
        Some(i) => text.split_at(i),
        None => (text, ""),
    };
    let mnemonic = mnemonic.to_ascii_lowercase();
    let ops: Vec<&str> = rest.split(',').map(str::trim).filter(|s| !s.is_empty()).collect();

    let need = |n: usize| -> Result<(), AsmError> {
        if ops.len() == n {
            Ok(())
        } else {
            err(line, format!("{mnemonic} expects {n} operands, got {}", ops.len()))
        }
    };

    let plain = |inst: Inst| Ok(Item::Inst { inst, target: None });
    let with_target = |inst: Inst, t: ImmOrLabel, line: usize| -> Result<Item, AsmError> {
        match t {
            ImmOrLabel::Imm(v) => Ok(Item::Inst {
                inst: patch_imm16(inst, imm_u16(v, line)?)
                    .map_err(|m| AsmError { line, message: m })?,
                target: None,
            }),
            ImmOrLabel::Label(l) => Ok(Item::Inst { inst, target: Some(l) }),
        }
    };

    match mnemonic.as_str() {
        "nop" => {
            need(0)?;
            plain(Inst::Nop)
        }
        "halt" => {
            need(0)?;
            plain(Inst::Halt)
        }
        "ret" => {
            need(0)?;
            plain(Inst::Ret)
        }
        "movi" => {
            need(2)?;
            let rd = parse_reg(ops[0], line)?;
            with_target(Inst::Movi { rd, imm: 0 }, parse_imm_or_label(ops[1], line)?, line)
        }
        "mov" => {
            need(2)?;
            plain(Inst::Mov { rd: parse_reg(ops[0], line)?, rs: parse_reg(ops[1], line)? })
        }
        "seqz" => {
            need(2)?;
            plain(Inst::Seqz { rd: parse_reg(ops[0], line)?, rs: parse_reg(ops[1], line)? })
        }
        "add" | "sub" | "mul" | "divu" | "and" | "or" | "xor" => {
            need(3)?;
            let rd = parse_reg(ops[0], line)?;
            let rs = parse_reg(ops[1], line)?;
            let rt = parse_reg(ops[2], line)?;
            plain(match mnemonic.as_str() {
                "add" => Inst::Add { rd, rs, rt },
                "sub" => Inst::Sub { rd, rs, rt },
                "mul" => Inst::Mul { rd, rs, rt },
                "divu" => Inst::Divu { rd, rs, rt },
                "and" => Inst::And { rd, rs, rt },
                "or" => Inst::Or { rd, rs, rt },
                _ => Inst::Xor { rd, rs, rt },
            })
        }
        "addi" => {
            need(3)?;
            let rd = parse_reg(ops[0], line)?;
            let rs = parse_reg(ops[1], line)?;
            let v = parse_int(ops[2]).ok_or_else(|| AsmError {
                line,
                message: format!("invalid immediate {:?}", ops[2]),
            })?;
            plain(Inst::Addi { rd, rs, imm: imm_i16(v, line)? })
        }
        "andi" => {
            need(3)?;
            let rd = parse_reg(ops[0], line)?;
            let rs = parse_reg(ops[1], line)?;
            let v = parse_int(ops[2]).ok_or_else(|| AsmError {
                line,
                message: format!("invalid immediate {:?}", ops[2]),
            })?;
            plain(Inst::Andi { rd, rs, imm: imm_u16(v, line)? })
        }
        "ld" => {
            need(2)?;
            let rd = parse_reg(ops[0], line)?;
            let (rs, imm) = parse_mem(ops[1], line)?;
            plain(Inst::Ld { rd, rs, imm })
        }
        "st" => {
            need(2)?;
            let (rs, imm) = parse_mem(ops[0], line)?;
            let rt = parse_reg(ops[1], line)?;
            plain(Inst::St { rs, rt, imm })
        }
        "ldt" => {
            need(2)?;
            let rd = parse_reg(ops[0], line)?;
            with_target(Inst::Ldt { rd, addr: 0 }, parse_imm_or_label(ops[1], line)?, line)
        }
        "jmp" => {
            need(1)?;
            with_target(Inst::Jmp { addr: 0 }, parse_imm_or_label(ops[0], line)?, line)
        }
        "call" => {
            need(1)?;
            with_target(Inst::Call { addr: 0 }, parse_imm_or_label(ops[0], line)?, line)
        }
        "beq" | "bne" | "blt" | "bge" => {
            need(3)?;
            let rs = parse_reg(ops[0], line)?;
            let rt = parse_reg(ops[1], line)?;
            let inst = match mnemonic.as_str() {
                "beq" => Inst::Beq { rs, rt, addr: 0 },
                "bne" => Inst::Bne { rs, rt, addr: 0 },
                "blt" => Inst::Blt { rs, rt, addr: 0 },
                _ => Inst::Bge { rs, rt, addr: 0 },
            };
            with_target(inst, parse_imm_or_label(ops[2], line)?, line)
        }
        "callr" => {
            need(1)?;
            plain(Inst::Callr { rs: parse_reg(ops[0], line)? })
        }
        "jr" => {
            need(1)?;
            plain(Inst::Jr { rs: parse_reg(ops[0], line)? })
        }
        "sys" => {
            need(1)?;
            let v = parse_int(ops[0]).ok_or_else(|| AsmError {
                line,
                message: format!("invalid syscall {:?}", ops[0]),
            })?;
            if !(0..=255).contains(&v) {
                return err(line, format!("syscall number {v} out of range"));
            }
            plain(Inst::Sys { num: v as u8 })
        }
        "pckt" => {
            need(2)?;
            let rs = parse_reg(ops[0], line)?;
            with_target(Inst::Pckt { rs, table: 0 }, parse_imm_or_label(ops[1], line)?, line)
        }
        other => err(line, format!("unknown mnemonic {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::decode;

    #[test]
    fn parse_basic_program() {
        let asm = Assembly::parse(
            r#"
            ; a comment
            start:
                movi r1, 0x10  # trailing comment
                addi r1, r1, -3
                beq r1, r0, done
                jmp start
            done:
                halt
            "#,
        )
        .unwrap();
        let labels: Vec<_> = asm.items.iter().filter(|i| matches!(i, Item::Label(_))).collect();
        assert_eq!(labels.len(), 2);
        let program = asm.assemble().unwrap();
        assert_eq!(program.len(), 5);
        assert_eq!(program.entry, 0);
        assert_eq!(program.symbol("done"), Some(4));
        assert_eq!(decode(program.text[0]).unwrap(), Inst::Movi { rd: 1, imm: 16 });
        assert_eq!(decode(program.text[2]).unwrap(), Inst::Beq { rs: 1, rt: 0, addr: 4 });
    }

    #[test]
    fn entry_is_start_label() {
        let program = assemble_source("nop\nstart: halt\n").unwrap();
        assert_eq!(program.entry, 1);
    }

    #[test]
    fn memory_operands() {
        let program =
            assemble_source("ld r1, [r15+2]\nld r2, [r15]\nst [r15-1], r3\nhalt\n").unwrap();
        assert_eq!(decode(program.text[0]).unwrap(), Inst::Ld { rd: 1, rs: 15, imm: 2 });
        assert_eq!(decode(program.text[1]).unwrap(), Inst::Ld { rd: 2, rs: 15, imm: 0 });
        assert_eq!(decode(program.text[2]).unwrap(), Inst::St { rs: 15, rt: 3, imm: -1 });
    }

    #[test]
    fn words_and_label_words() {
        let program =
            assemble_source("start: halt\ntable: .word 2\n.word start\n.word 0xdead\n").unwrap();
        assert_eq!(program.symbol("table"), Some(1));
        assert_eq!(program.text[1], 2);
        assert_eq!(program.text[2], 0); // address of start
        assert_eq!(program.text[3], 0xDEAD);
    }

    #[test]
    fn targets_directive_parses_and_emits_nothing() {
        let asm = Assembly::parse(".targets f, g\ncallr r4\nf: halt\ng: halt\n").unwrap();
        assert!(
            matches!(&asm.items[0], Item::Targets(t) if t == &vec!["f".to_owned(), "g".to_owned()])
        );
        let program = asm.assemble().unwrap();
        assert_eq!(program.len(), 3);
    }

    #[test]
    fn movi_with_label_resolves_address() {
        let program = assemble_source("movi r4, func\ncallr r4\nhalt\nfunc: ret\n").unwrap();
        assert_eq!(decode(program.text[0]).unwrap(), Inst::Movi { rd: 4, imm: 3 });
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = Assembly::parse("nop\nbogus r1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("bogus"));

        let e = Assembly::parse("movi r99, 3\n").unwrap_err();
        assert_eq!(e.line, 1);

        let e = Assembly::parse("movi r1\n").unwrap_err();
        assert!(e.message.contains("expects 2 operands"));

        let e = Assembly::parse("addi r1, r1, 99999\n").unwrap_err();
        assert!(e.message.contains("does not fit"));
    }

    #[test]
    fn duplicate_and_unresolved_labels() {
        let e = assemble_source("a: nop\na: halt\n").unwrap_err();
        assert!(e.message.contains("duplicate"));
        let e = assemble_source("jmp nowhere\n").unwrap_err();
        assert!(e.message.contains("unresolved"));
    }

    #[test]
    fn multiple_labels_one_line() {
        let program = assemble_source("a: b: halt\n").unwrap();
        assert_eq!(program.symbol("a"), Some(0));
        assert_eq!(program.symbol("b"), Some(0));
    }

    #[test]
    fn immediate_branch_targets_allowed() {
        let program = assemble_source("jmp 3\nnop\nnop\nhalt\n").unwrap();
        assert_eq!(decode(program.text[0]).unwrap(), Inst::Jmp { addr: 3 });
    }

    #[test]
    fn patch_imm16_rejects_field_free_instructions() {
        assert!(patch_imm16(Inst::Nop, 5).is_err());
        assert!(patch_imm16(Inst::Ret, 5).is_err());
        assert_eq!(patch_imm16(Inst::Jmp { addr: 0 }, 5), Ok(Inst::Jmp { addr: 5 }));
    }

    #[test]
    fn hostile_operands_are_errors_not_panics() {
        // Each of these once panicked: an empty or non-ASCII memory
        // operand sliced past a character boundary, and negating
        // i64::MIN overflowed.
        for src in [
            "st [], r0",
            "st [é-1], r0",
            "ld r1, [r1-0x-8000000000000000]",
            "sys --9223372036854775808",
            "movi r1, -0x-8000000000000000",
        ] {
            let e = assemble_source(src).unwrap_err();
            assert_eq!(e.line, 1, "{src}: {e}");
        }
    }
}
