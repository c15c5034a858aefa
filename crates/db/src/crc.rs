//! CRC-32 (IEEE 802.3) used by the static-data audit and the durable
//! store's journal/checkpoint framing.
//!
//! The paper's static-data check "detects corruption in static data
//! region by computing a golden checksum of all static data at startup
//! and comparing it with a periodically computed checksum (32-bit
//! Cyclic Redundancy Code)" (§4.3.1). This is the classic reflected
//! polynomial 0xEDB88320.
//!
//! [`crc32`] dispatches to the best **kernel** the host supports,
//! selected once at runtime: a PCLMULQDQ carry-less-multiply folding
//! kernel on x86-64 (the SSE4.2-era `crc32` *instruction* computes the
//! Castagnoli polynomial, not IEEE, so folding is the correct hardware
//! path for this CRC), falling back to the portable **slice-by-8**
//! kernel ([`crc32_slice8`]) everywhere else or when `WTNC_NO_HWCRC=1`
//! is set. Both kernels are bit-identical by construction and by
//! property test, so on-disk frames written on one host verify on any
//! other. The classic bytewise loop is kept as [`crc32_bytewise`] for
//! reference and the `crc_kernel` microbench.
//!
//! Every caller hashes whole buffers; the largest static-data chunk on
//! the shipped schemas (the catalog) is under 1 KB.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// The reflected CRC-32 (IEEE) polynomial.
const POLY: u32 = 0xEDB8_8320;

fn tables() -> &'static [[u32; 256]; 8] {
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, slot) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        for k in 1..8 {
            for i in 0..256usize {
                let prev = t[k - 1][i];
                t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            }
        }
        t
    })
}

/// Computes the CRC-32 (IEEE) of `data` one byte at a time — the
/// reference kernel. Prefer [`crc32`]; this exists so tests can prove
/// the fast kernels equivalent and the microbench can quantify the
/// speedup.
pub fn crc32_bytewise(data: &[u8]) -> u32 {
    let t = &tables()[0];
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = t[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Advances a raw (pre-inversion) CRC register across `data` with the
/// slice-by-8 tables. Shared by the portable kernel and the hardware
/// kernel's unaligned head/tail handling.
fn update_slice8(crc: u32, data: &[u8]) -> u32 {
    let t = tables();
    let mut c = crc;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ c;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][((lo >> 24) & 0xFF) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][((hi >> 24) & 0xFF) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Computes the CRC-32 (IEEE) of `data` with the portable slice-by-8
/// kernel, regardless of what hardware the host offers.
pub fn crc32_slice8(data: &[u8]) -> u32 {
    update_slice8(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Computes the CRC-32 (IEEE) of `data` with the best kernel the host
/// supports (see [`crc_kernel`] for which one that is).
///
/// # Example
///
/// ```
/// use wtnc_db::crc32;
///
/// // Standard check value for "123456789".
/// assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    crc32_with(crc_kernel(), data)
}

// ---------------------------------------------------------------------------
// Kernel selection.
// ---------------------------------------------------------------------------

/// Which checksum kernel [`crc32`] runs. Both produce bit-identical
/// CRC-32 (IEEE) values; they differ only in throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrcKernel {
    /// x86-64 PCLMULQDQ folding (≥3× slice-by-8 on capable hosts).
    Hardware,
    /// Portable slice-by-8 table kernel.
    Slice8,
}

impl CrcKernel {
    /// Short name for logs and bench artifacts.
    pub fn name(self) -> &'static str {
        match self {
            CrcKernel::Hardware => "pclmul",
            CrcKernel::Slice8 => "slice8",
        }
    }
}

/// Whether this build + host can run the hardware kernel at all.
fn hw_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The pure selection rule behind the runtime gate, split out so the
/// env-override behavior is unit-testable without mutating the process
/// environment: `WTNC_NO_HWCRC=1` always forces the portable kernel.
fn kernel_for(no_hwcrc_env: Option<&str>, hw_available: bool) -> CrcKernel {
    if no_hwcrc_env == Some("1") || !hw_available {
        CrcKernel::Slice8
    } else {
        CrcKernel::Hardware
    }
}

/// Process-wide override: 0 = auto-detect, 1 = force portable,
/// 2 = prefer hardware (still falls back when unsupported). Set by
/// [`set_crc_kernel_override`] (kernel-parity tests).
static KERNEL_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Forces (or un-forces, with `None`) the kernel [`crc32`] uses.
/// Both kernels are bit-identical, so flipping this at runtime never
/// changes any checksum — only throughput. `Some(Hardware)` on a host
/// without PCLMULQDQ silently keeps the portable kernel.
pub fn set_crc_kernel_override(kernel: Option<CrcKernel>) {
    let v = match kernel {
        None => 0,
        Some(CrcKernel::Slice8) => 1,
        Some(CrcKernel::Hardware) => 2,
    };
    KERNEL_OVERRIDE.store(v, Ordering::Relaxed);
}

/// The kernel [`crc32`] will use right now: the override if one is
/// set, otherwise the cached auto-detection (CPU features gated by the
/// `WTNC_NO_HWCRC=1` environment override, read once).
pub fn crc_kernel() -> CrcKernel {
    match KERNEL_OVERRIDE.load(Ordering::Relaxed) {
        1 => CrcKernel::Slice8,
        2 if hw_supported() => CrcKernel::Hardware,
        2 => CrcKernel::Slice8,
        _ => {
            static DETECTED: OnceLock<CrcKernel> = OnceLock::new();
            *DETECTED.get_or_init(|| {
                let env = std::env::var("WTNC_NO_HWCRC").ok();
                kernel_for(env.as_deref(), hw_supported())
            })
        }
    }
}

/// Computes the CRC-32 (IEEE) of `data` with an explicitly chosen
/// kernel (benchmarks and parity tests; [`crc32`] for normal use).
/// `Hardware` on an unsupported host falls back to slice-by-8.
pub fn crc32_with(kernel: CrcKernel, data: &[u8]) -> u32 {
    match kernel {
        #[cfg(target_arch = "x86_64")]
        CrcKernel::Hardware if hw_supported() => pclmul::crc32_hw(data),
        _ => crc32_slice8(data),
    }
}

/// The PCLMULQDQ folding kernel for the reflected CRC-32 (IEEE)
/// polynomial, after Gopal et al., *Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ Instruction* (Intel, 2009) — the same
/// construction (and fold constants) as the Linux kernel's
/// `crc32-pclmul` and zlib-ng. Four 128-bit lanes fold 64-byte strides
/// of the message polynomial, the lanes collapse to one, and a Barrett
/// reduction brings the 128-bit remainder back to the 32-bit CRC.
///
/// This module is the only `unsafe` code in the workspace; the crate
/// is otherwise `deny(unsafe_code)`. Safety rests on two invariants:
/// every entry point is gated by `hw_supported()` runtime feature
/// detection before the `#[target_feature]` functions are called, and
/// all loads are unaligned (`_mm_loadu_si128`) within bounds
/// established by the slicing logic.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod pclmul {
    use super::update_slice8;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    // Fold constants for the IEEE polynomial (reflected): x^t mod P
    // for the shift distances the folding uses. Identical values to
    // the Linux kernel's `crc32-pclmul_asm.S` constant pool.
    const K1: i64 = 0x1_5444_2bd4; // x^(4·128+32) mod P
    const K2: i64 = 0x1_c6e4_1596; // x^(4·128-32) mod P
    const K3: i64 = 0x1_7519_97d0; // x^(128+32) mod P
    const K4: i64 = 0x0_ccaa_009e; // x^(128-32) mod P
    const K5: i64 = 0x1_63cd_6124; // x^64 mod P
    const POLY_P: i64 = 0x1_db71_0641; // P'
    const POLY_U: i64 = 0x1_f701_1641; // Barrett µ

    /// Below this the fold setup costs more than it saves; the
    /// portable kernel handles short buffers.
    const FOLD_MIN: usize = 64;

    /// Folds `a` down by 128 bits into `b`: `a.lo·k.lo ⊕ a.hi·k.hi ⊕ b`.
    #[inline]
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    unsafe fn fold128(a: __m128i, b: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, keys, 0x00);
        let hi = _mm_clmulepi64_si128(a, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }

    /// Advances raw register `crc` across `data`, which must be a
    /// multiple of 16 bytes and at least [`FOLD_MIN`] long.
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    unsafe fn update_pclmul(crc: u32, data: &[u8]) -> u32 {
        debug_assert!(data.len() >= FOLD_MIN && data.len().is_multiple_of(16));
        let mut ptr = data.as_ptr().cast::<__m128i>();
        let mut len = data.len();

        // Four lanes over the first 64 bytes; the running CRC enters
        // the message by XOR into the first 32 bits (linearity).
        let mut x3 = _mm_loadu_si128(ptr);
        let mut x2 = _mm_loadu_si128(ptr.add(1));
        let mut x1 = _mm_loadu_si128(ptr.add(2));
        let mut x0 = _mm_loadu_si128(ptr.add(3));
        ptr = ptr.add(4);
        len -= 64;
        x3 = _mm_xor_si128(x3, _mm_cvtsi32_si128(crc as i32));

        let k1k2 = _mm_set_epi64x(K2, K1);
        while len >= 64 {
            x3 = fold128(x3, _mm_loadu_si128(ptr), k1k2);
            x2 = fold128(x2, _mm_loadu_si128(ptr.add(1)), k1k2);
            x1 = fold128(x1, _mm_loadu_si128(ptr.add(2)), k1k2);
            x0 = fold128(x0, _mm_loadu_si128(ptr.add(3)), k1k2);
            ptr = ptr.add(4);
            len -= 64;
        }

        // Collapse the four lanes, then fold any 16-byte stragglers.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold128(x3, x2, k3k4);
        x = fold128(x, x1, k3k4);
        x = fold128(x, x0, k3k4);
        while len >= 16 {
            x = fold128(x, _mm_loadu_si128(ptr), k3k4);
            ptr = ptr.add(1);
            len -= 16;
        }
        debug_assert_eq!(len, 0);

        // 128 → 64 bits.
        let mask32 = _mm_set_epi32(0, 0, 0, !0);
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, mask32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );

        // Barrett reduction 64 → 32 bits.
        let pu = _mm_set_epi64x(POLY_U, POLY_P);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, mask32), pu, 0x10);
        let t2 = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(t1, mask32), pu, 0x00), x);
        _mm_extract_epi32(t2, 1) as u32
    }

    /// Whole-buffer CRC on the hardware kernel: PCLMUL folding over the
    /// largest 16-byte-aligned span, slice-by-8 for the tail (and for
    /// buffers too short to amortize the fold setup).
    pub(super) fn crc32_hw(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        if data.len() >= FOLD_MIN {
            let main = data.len() & !15;
            // SAFETY: callers reach this module only after
            // `hw_supported()` confirmed pclmulqdq+sse4.1 at runtime,
            // and `main` is a 16-byte multiple ≥ FOLD_MIN within
            // bounds.
            c = unsafe { update_pclmul(c, &data[..main]) };
            c = update_slice8(c, &data[main..]);
        } else {
            c = update_slice8(c, data);
        }
        c ^ 0xFFFF_FFFF
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn bytewise_and_slice8_agree() {
        let mut data = Vec::new();
        let mut x = 0x1234_5678u32;
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 255, 256, 1024, 4093] {
            data.clear();
            for _ in 0..len {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                data.push((x >> 24) as u8);
            }
            assert_eq!(crc32_slice8(&data), crc32_bytewise(&data), "len {len}");
            assert_eq!(crc32(&data), crc32_slice8(&data), "dispatch len {len}");
        }
    }

    #[test]
    fn hardware_kernel_matches_slice8_at_fold_boundaries() {
        // Exercise every alignment-sensitive length around the 64-byte
        // fold threshold and the 16-byte stride, plus large buffers.
        let mut x = 0x9E37_79B9u32;
        for len in [
            0usize, 1, 15, 16, 17, 48, 63, 64, 65, 79, 80, 81, 95, 96, 127, 128, 129, 143, 144,
            255, 256, 257, 4096, 4097, 65536, 65551,
        ] {
            let data: Vec<u8> = (0..len)
                .map(|_| {
                    x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                    (x >> 24) as u8
                })
                .collect();
            assert_eq!(
                crc32_with(CrcKernel::Hardware, &data),
                crc32_with(CrcKernel::Slice8, &data),
                "len {len}"
            );
        }
    }

    #[test]
    fn hardware_kernel_matches_on_unaligned_starts() {
        let backing: Vec<u8> =
            (0..4096u32).map(|i| (i.wrapping_mul(2654435761) >> 23) as u8).collect();
        for start in 0..16 {
            let d = &backing[start..];
            assert_eq!(
                crc32_with(CrcKernel::Hardware, d),
                crc32_with(CrcKernel::Slice8, d),
                "start {start}"
            );
        }
    }

    #[test]
    fn env_gate_selects_portable_kernel() {
        // The selection rule: WTNC_NO_HWCRC=1 wins over any hardware.
        assert_eq!(kernel_for(Some("1"), true), CrcKernel::Slice8);
        assert_eq!(kernel_for(Some("1"), false), CrcKernel::Slice8);
        assert_eq!(kernel_for(Some("0"), false), CrcKernel::Slice8);
        assert_eq!(kernel_for(None, false), CrcKernel::Slice8);
        assert_eq!(kernel_for(None, true), CrcKernel::Hardware);
        // And the live gate agrees when the process actually runs under
        // the override (the CI leg runs the suite with WTNC_NO_HWCRC=1).
        if std::env::var("WTNC_NO_HWCRC").as_deref() == Ok("1") {
            assert_eq!(crc_kernel(), CrcKernel::Slice8);
        }
    }

    #[test]
    fn kernel_override_forces_and_restores() {
        let base = crc_kernel();
        set_crc_kernel_override(Some(CrcKernel::Slice8));
        assert_eq!(crc_kernel(), CrcKernel::Slice8);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        set_crc_kernel_override(None);
        assert_eq!(crc_kernel(), base);
        assert_eq!(CrcKernel::Hardware.name(), "pclmul");
        assert_eq!(CrcKernel::Slice8.name(), "slice8");
    }

    #[test]
    fn detects_every_single_bit_flip_in_small_buffer() {
        let base = [0x5Au8; 64];
        let golden = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut corrupted = base;
                corrupted[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), golden, "missed flip at {byte}:{bit}");
            }
        }
    }

    #[test]
    fn order_sensitive() {
        assert_ne!(crc32(b"ab"), crc32(b"ba"));
    }
}
