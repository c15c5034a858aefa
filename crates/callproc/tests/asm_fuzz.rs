//! Assembler fuzzing: `asm::assemble_source` over arbitrary text, over
//! soups of assembler tokens, and over line-mutated copies of the
//! call-processing client's own program. `wtnc asm|run|trace|pecos`
//! assemble whatever file they are given, so for any input the
//! assembler returns a program or an `AsmError` and never panics, and
//! every instruction it emits decodes. (`.word` data words are
//! arbitrary values by design and are not required to decode.)

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use wtnc_callproc::AsmClientConfig;
use wtnc_isa::asm::{assemble_source, Assembly, Item};
use wtnc_isa::decode;

/// Mnemonics, valid and not.
const MNEMONICS: &[&str] = &[
    "movi", "mov", "add", "addi", "andi", "ld", "st", "ldt", "jmp", "call", "beq", "bne", "callr",
    "jr", "sys", "pckt", "ret", "halt", "nop", "bogus", ".word", ".targets", ".bogus",
];

/// Registers, in and out of range.
const REGISTERS: &[&str] = &["r0", "r15", "r16", "R3", "x", ""];

/// Memory operands, well- and ill-formed.
const MEMORY: &[&str] = &[
    "[r1]",
    "[r15+3]",
    "[r2-1]",
    "[]",
    "[é]",
    "[-]",
    "[r1-]",
    "[é-1]",
    "[r1+]",
    "[r1-0x-8000000000000000]",
    "[r1--9223372036854775808]",
];

/// Immediates and labels, including integer edge cases (`i64::MIN`
/// spelt two ways).
const VALUES: &[&str] = &[
    "0",
    "1",
    "-1",
    "255",
    "256",
    "32767",
    "-32769",
    "65535",
    "65536",
    "0x",
    "0xffffffff",
    "0x100000000",
    "-0x-8000000000000000",
    "--9223372036854775808",
    "9223372036854775808",
    "start",
    "loop",
    "_x",
    "9bad",
];

/// Separators, label and comment syntax, and a multi-byte character.
const PUNCTUATION: &[&str] = &[":", ",", " ", "\t", "\n", ";", "#", "é", "+", "-", "[", "]"];

/// Every fragment, for soups and splices.
fn tokens() -> Vec<&'static str> {
    [MNEMONICS, REGISTERS, MEMORY, VALUES, PUNCTUATION].concat()
}

fn token_soup() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<prop::sample::Index>(), 0..64).prop_map(|picks| {
        let tokens = tokens();
        picks.into_iter().map(|i| tokens[i.index(tokens.len())]).collect()
    })
}

/// A statement-shaped line: a mnemonic, a space, then one to three
/// comma-separated operands, each drawn evenly from registers, memory
/// operands and values — the shape that reaches operand parsing.
fn statement() -> impl Strategy<Value = String> {
    let operand = (0..3usize, any::<prop::sample::Index>()).prop_map(|(kind, i)| {
        let group = [REGISTERS, MEMORY, VALUES][kind];
        group[i.index(group.len())]
    });
    (0..MNEMONICS.len(), prop::collection::vec(operand, 1..4))
        .prop_map(|(m, ops)| format!("{} {}", MNEMONICS[m], ops.join(", ")))
}

fn line() -> impl Strategy<Value = String> {
    prop_oneof![token_soup(), statement()]
}

/// One edit to a program's lines.
#[derive(Debug, Clone)]
enum Mutation {
    Delete(prop::sample::Index),
    Duplicate(prop::sample::Index),
    Swap(prop::sample::Index, prop::sample::Index),
    /// Replaces a line with a token soup or a statement.
    Replace(prop::sample::Index, String),
    /// Cuts a line at a character boundary.
    Truncate(prop::sample::Index, prop::sample::Index),
    /// Inserts a fragment into a line at a character boundary.
    Splice(prop::sample::Index, prop::sample::Index, prop::sample::Index),
}

fn mutation() -> impl Strategy<Value = Mutation> {
    let at = any::<prop::sample::Index>;
    prop_oneof![
        at().prop_map(Mutation::Delete),
        at().prop_map(Mutation::Duplicate),
        (at(), at()).prop_map(|(a, b)| Mutation::Swap(a, b)),
        (at(), line()).prop_map(|(a, s)| Mutation::Replace(a, s)),
        (at(), at()).prop_map(|(a, c)| Mutation::Truncate(a, c)),
        (at(), at(), at()).prop_map(|(a, c, t)| Mutation::Splice(a, c, t)),
    ]
}

/// Byte offset of the `at`-th character boundary of `line`.
fn boundary(line: &str, at: prop::sample::Index) -> usize {
    let bounds: Vec<usize> = line.char_indices().map(|(i, _)| i).chain([line.len()]).collect();
    bounds[at.index(bounds.len())]
}

fn mutate(source: &str, edits: &[Mutation]) -> String {
    let mut lines: Vec<String> = source.lines().map(str::to_owned).collect();
    for edit in edits {
        if lines.is_empty() {
            break;
        }
        let n = lines.len();
        match edit {
            Mutation::Delete(a) => {
                lines.remove(a.index(n));
            }
            Mutation::Duplicate(a) => {
                let line = lines[a.index(n)].clone();
                lines.insert(a.index(n), line);
            }
            Mutation::Swap(a, b) => lines.swap(a.index(n), b.index(n)),
            Mutation::Replace(a, soup) => lines[a.index(n)] = soup.clone(),
            Mutation::Truncate(a, c) => {
                let line = &mut lines[a.index(n)];
                line.truncate(boundary(line, *c));
            }
            Mutation::Splice(a, c, t) => {
                let line = &mut lines[a.index(n)];
                let tokens = tokens();
                line.insert_str(boundary(line, *c), tokens[t.index(tokens.len())]);
            }
        }
    }
    lines.join("\n")
}

/// Assembles `source`; a panic fails the case with the source shown.
/// On success, every instruction item's word must decode.
fn check(source: &str) -> Result<(), prop::test_runner::TestCaseError> {
    let result = catch_unwind(AssertUnwindSafe(|| assemble_source(source)));
    prop_assert!(result.is_ok(), "assembler panicked on {source:?}");
    let Ok(Ok(program)) = result else { return Ok(()) };
    let assembly = Assembly::parse(source).expect("assembled source parses");
    let mut addr = 0usize;
    for item in &assembly.items {
        if let Item::Inst { .. } = item {
            let word = program.text[addr];
            prop_assert!(decode(word).is_ok(), "word {word:#010x} at {addr} of {source:?}");
        }
        addr += item.size() as usize;
    }
    prop_assert_eq!(addr, program.text.len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_text_assembles_or_errors(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        check(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn mutated_client_programs_assemble_or_error(
        iterations in 1u16..64,
        edits in prop::collection::vec(mutation(), 0..6),
    ) {
        let source = AsmClientConfig { iterations }.program_source();
        check(&mutate(&source, &edits))?;
    }
}

proptest! {
    // Cheap cases, and a panic needs a rare mnemonic/operand pairing.
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Each line alone, then all of them: parsing stops at the first
    /// bad line, so only a line on its own is sure to be parsed.
    #[test]
    fn token_lines_assemble_or_error(lines in prop::collection::vec(line(), 0..16)) {
        for line in &lines {
            check(line)?;
        }
        check(&lines.join("\n"))?;
    }
}
