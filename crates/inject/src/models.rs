//! The error models of Table 6 (after Kanawati/Abraham's FERRARI
//! models, plus random memory errors).

use wtnc_isa::OPCODE_SHIFT;
use wtnc_sim::SimRng;

/// How an injected error corrupts the instruction word about to be
/// fetched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorModel {
    /// Address line error: a *different* instruction from the
    /// instruction stream executes (the word at an address with one
    /// flipped address bit).
    Addif,
    /// Data line error while the opcode is fetched: one bit flips in
    /// the opcode byte.
    Dataif,
    /// Data line error while an operand is fetched: one bit flips in
    /// the operand field.
    Dataof,
    /// Data line error on any bit of the fetched instruction (random
    /// memory error, RAND).
    Datainf,
}

impl ErrorModel {
    /// All four models, in the paper's order.
    pub const ALL: [ErrorModel; 4] =
        [ErrorModel::Addif, ErrorModel::Dataif, ErrorModel::Dataof, ErrorModel::Datainf];

    /// Computes the corrupted word for the instruction at `addr`.
    /// `text` is the (uncorrupted) text segment.
    pub fn corrupt(self, text: &[u32], addr: usize, rng: &mut SimRng) -> u32 {
        let word = text[addr];
        match self {
            ErrorModel::Addif => {
                // Flip one address bit; wrap into the text segment so
                // the fetched word always comes from the instruction
                // stream.
                let bit = (rng.bits() % 16) as u32;
                let neighbour = (addr ^ (1usize << bit)) % text.len();
                if neighbour == addr {
                    // Degenerate (single-word text): fall back to a data
                    // bit flip so an error is still injected.
                    word ^ 1
                } else {
                    text[neighbour]
                }
            }
            ErrorModel::Dataif => {
                let bit = OPCODE_SHIFT + (rng.bits() % 8) as u32;
                word ^ (1 << bit)
            }
            ErrorModel::Dataof => {
                let bit = (rng.bits() % OPCODE_SHIFT as u64) as u32;
                word ^ (1 << bit)
            }
            ErrorModel::Datainf => {
                let bit = (rng.bits() % 32) as u32;
                word ^ (1 << bit)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_text() -> Vec<u32> {
        (0..64).map(|i| 0x0200_0000 | i as u32).collect()
    }

    #[test]
    fn dataif_flips_only_opcode_bits() {
        let text = sample_text();
        let mut rng = SimRng::seed_from(1);
        for _ in 0..200 {
            let corrupted = ErrorModel::Dataif.corrupt(&text, 5, &mut rng);
            let diff = corrupted ^ text[5];
            assert_eq!(diff.count_ones(), 1);
            assert!(diff >= 1 << OPCODE_SHIFT, "flip must land in the opcode byte");
        }
    }

    #[test]
    fn dataof_flips_only_operand_bits() {
        let text = sample_text();
        let mut rng = SimRng::seed_from(2);
        for _ in 0..200 {
            let corrupted = ErrorModel::Dataof.corrupt(&text, 5, &mut rng);
            let diff = corrupted ^ text[5];
            assert_eq!(diff.count_ones(), 1);
            assert!(diff < 1 << OPCODE_SHIFT, "flip must stay out of the opcode byte");
        }
    }

    #[test]
    fn datainf_flips_exactly_one_bit_anywhere() {
        let text = sample_text();
        let mut rng = SimRng::seed_from(3);
        let mut high = false;
        let mut low = false;
        for _ in 0..500 {
            let corrupted = ErrorModel::Datainf.corrupt(&text, 9, &mut rng);
            let diff = corrupted ^ text[9];
            assert_eq!(diff.count_ones(), 1);
            if diff >= 1 << OPCODE_SHIFT {
                high = true;
            } else {
                low = true;
            }
        }
        assert!(high && low, "random model must cover both regions");
    }

    #[test]
    fn addif_executes_a_different_stream_instruction() {
        let text = sample_text();
        let mut rng = SimRng::seed_from(4);
        for _ in 0..200 {
            let corrupted = ErrorModel::Addif.corrupt(&text, 7, &mut rng);
            assert!(text.contains(&corrupted), "ADDIF must fetch a word that exists in the stream");
        }
    }

    #[test]
    fn addif_single_word_text_still_injects() {
        let text = vec![0xABCD_EF01];
        let mut rng = SimRng::seed_from(5);
        let corrupted = ErrorModel::Addif.corrupt(&text, 0, &mut rng);
        assert_ne!(corrupted, text[0]);
    }

    #[test]
    fn all_lists_four_models() {
        assert_eq!(ErrorModel::ALL.len(), 4);
    }
}
