//! Assembled programs: text segment plus symbol table.

use std::collections::BTreeMap;

use crate::inst::decode;

/// An assembled program.
///
/// Text addresses are word indices (one instruction per word). The
/// symbol table maps every label to its resolved address; PECOS reads
/// back the addresses of its generated labels from here to learn where
/// its assertion blocks landed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// The text segment: one encoded instruction (or data word) per
    /// element.
    pub text: Vec<u32>,
    /// Label → address.
    pub symbols: BTreeMap<String, u16>,
    /// Entry point (the `start` label if present, else address 0).
    pub entry: u16,
}

impl Program {
    /// Address of a label.
    pub fn symbol(&self, name: &str) -> Option<u16> {
        self.symbols.get(name).copied()
    }

    /// Length of the text segment in words.
    pub fn len(&self) -> usize {
        self.text.len()
    }

    /// True when the program has no text.
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// Human-readable disassembly listing (labels, addresses, decoded
    /// instructions; undecodable words print as `.word`).
    pub fn disassemble(&self) -> String {
        let mut by_addr: BTreeMap<u16, Vec<&str>> = BTreeMap::new();
        for (name, &addr) in &self.symbols {
            by_addr.entry(addr).or_default().push(name);
        }
        let mut out = String::new();
        for (addr, &word) in self.text.iter().enumerate() {
            if let Some(labels) = by_addr.get(&(addr as u16)) {
                for l in labels {
                    out.push_str(l);
                    out.push_str(":\n");
                }
            }
            match decode(word) {
                Ok(inst) => out.push_str(&format!("  {addr:5}: {inst:?}\n")),
                Err(_) => out.push_str(&format!("  {addr:5}: .word {word:#010x}\n")),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{encode, Inst};

    #[test]
    fn symbols_and_disassembly() {
        let mut symbols = BTreeMap::new();
        symbols.insert("start".to_owned(), 0u16);
        symbols.insert("data".to_owned(), 2u16);
        let program = Program {
            text: vec![encode(Inst::Movi { rd: 1, imm: 5 }), encode(Inst::Halt), 0xFFFF_FFFF],
            symbols,
            entry: 0,
        };
        assert_eq!(program.symbol("start"), Some(0));
        assert_eq!(program.symbol("missing"), None);
        assert_eq!(program.len(), 3);
        let listing = program.disassemble();
        assert!(listing.contains("start:"));
        assert!(listing.contains("Movi"));
        assert!(listing.contains(".word"));
    }
}
