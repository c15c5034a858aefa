//! CRC-32 kernel microbenchmark: the one-byte-at-a-time reference, the
//! portable slice-by-8 kernel, and the PCLMULQDQ hardware folding
//! kernel across 64 B – 64 KiB buffers — the block sizes the static
//! audit, journal framing and checkpoint MACs actually hash.
//!
//! Emits `results/BENCH_crc_kernel.json` with per-size throughput and
//! the hw-vs-slice8 speedup. On hosts without PCLMULQDQ (or with
//! `WTNC_NO_HWCRC=1`) the "hardware" column measures the fallback and
//! `hw_available` is stamped false, so the artifact can't overstate a
//! host it never ran on.
//!
//! ```sh
//! cargo run --release -p wtnc-bench --bin crc_kernel
//! ```

use std::time::Instant;

use wtnc::db::{crc32_bytewise, crc32_slice8, crc32_with, crc_kernel, CrcKernel};

/// Best-of-3 throughput (bytes/second) of `f` over `data`, with the
/// repetition count scaled so each sample hashes ~8 MiB.
fn throughput(data: &[u8], mut f: impl FnMut(&[u8]) -> u32) -> f64 {
    let reps = ((8 << 20) / data.len()).max(1);
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(f(std::hint::black_box(data)));
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    (reps * data.len()) as f64 / best
}

fn gibs(bytes_per_sec: f64) -> f64 {
    bytes_per_sec / (1u64 << 30) as f64
}

fn main() {
    let hw_available = crc_kernel() == CrcKernel::Hardware;
    let host = wtnc_bench::host_info_json();
    println!("CRC-32 kernels (64 B – 64 KiB), host: {host}");
    println!("detected kernel: {} (hw_available: {hw_available})\n", crc_kernel().name());
    println!(
        "{:>8} {:>14} {:>14} {:>14} {:>10} {:>10}",
        "size", "bytewise", "slice8", "hw", "s8/byte", "hw/s8"
    );

    let mut rows = String::new();
    for size in [64usize, 256, 1024, 4096, 16384, 65536] {
        let data: Vec<u8> = (0..size).map(|i| (i.wrapping_mul(31) % 251) as u8).collect();
        let tp_byte = throughput(&data, crc32_bytewise);
        let tp_s8 = throughput(&data, crc32_slice8);
        let tp_hw = throughput(&data, |d| crc32_with(CrcKernel::Hardware, d));
        let s8_vs_byte = tp_s8 / tp_byte.max(1.0);
        let hw_vs_s8 = tp_hw / tp_s8.max(1.0);
        println!(
            "{:>8} {:>11.3} GiB/s {:>8.3} GiB/s {:>8.3} GiB/s {:>9.2}x {:>9.2}x",
            size,
            gibs(tp_byte),
            gibs(tp_s8),
            gibs(tp_hw),
            s8_vs_byte,
            hw_vs_s8
        );
        rows.push_str(&format!(
            "    {{\"size\": {size}, \"bytewise_gibs\": {:.4}, \"slice8_gibs\": {:.4}, \
             \"hw_gibs\": {:.4}, \"slice8_vs_bytewise\": {s8_vs_byte:.3}, \
             \"hw_vs_slice8\": {hw_vs_s8:.3}}},\n",
            gibs(tp_byte),
            gibs(tp_s8),
            gibs(tp_hw)
        ));
    }
    let rows = rows.trim_end_matches(",\n").to_string();

    let json = format!(
        "{{\n  \"bench\": \"crc_kernel\",\n  \"host\": {host},\n  \
         \"hw_available\": {hw_available},\n  \"kernel_detected\": \"{}\",\n  \
         \"sizes\": [\n{rows}\n  ]\n}}\n",
        crc_kernel().name()
    );
    wtnc_bench::write_results("crc_kernel", &json);
}
