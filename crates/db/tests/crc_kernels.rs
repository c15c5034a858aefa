//! Equivalence properties for the CRC-32 kernels.
//!
//! The audit's golden checksums and the store's journal/checkpoint
//! frame CRCs both assume that every kernel — the reference bytewise
//! loop, the portable slice-by-8 and the PCLMULQDQ hardware path —
//! computes the *same* CRC-32 (IEEE 802.3) for the same bytes. A
//! divergence would make images written on one host unreadable on
//! another, so the equivalence is held as a property over arbitrary
//! buffers (whose lengths exercise the folding kernel's 64-byte stride,
//! 16-byte loop and scalar tail in every combination) and arbitrary
//! alignments.

use proptest::prelude::*;
use wtnc_db::{crc32, crc32_bytewise, crc32_slice8, crc32_with, CrcKernel};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every kernel agrees with the bytewise reference on arbitrary
    /// buffers (0 to a few KiB — crossing all stride boundaries).
    #[test]
    fn kernels_agree(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let reference = crc32_bytewise(&data);
        prop_assert_eq!(crc32_slice8(&data), reference);
        // `Hardware` degrades to slice-by-8 where unsupported, so this
        // holds on every host and is the real folding kernel on x86-64.
        prop_assert_eq!(crc32_with(CrcKernel::Hardware, &data), reference);
        prop_assert_eq!(crc32(&data), reference);
    }

    /// Unaligned starts: the hardware kernel's unaligned loads must not
    /// change the answer when the same bytes sit at a different offset.
    #[test]
    fn kernels_agree_at_any_alignment(
        data in proptest::collection::vec(any::<u8>(), 64..512),
        lead in 0usize..16,
    ) {
        let mut shifted = vec![0xEEu8; lead];
        shifted.extend_from_slice(&data);
        prop_assert_eq!(
            crc32_with(CrcKernel::Hardware, &shifted[lead..]),
            crc32_bytewise(&data)
        );
    }
}
