//! Host stamp, process measurements read from `/proc`, and the
//! calibration kernel that tracks the host's speed.

use std::path::Path;
use std::time::Instant;

use crate::stats::median;

/// The calibration kernel's time on the reference host (2-vCPU Intel
/// Xeon VM at 2.0 GHz), in µs.
pub const CALIBRATION_REF_US: f64 = 3500.0;

/// Wall µs of a fixed CPU kernel: an xorshift fill and an unstable sort
/// of 32 Ki `u64`, four times (integer work, branches and a 256 KiB
/// working set). It calls into none of the repository's crates, so a
/// change to them cannot move it; only the host's speed does.
pub fn calibrate() -> f64 {
    const N: usize = 1 << 15;
    let mut v: Vec<u64> = Vec::with_capacity(N);
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let t0 = Instant::now();
    for _ in 0..4 {
        v.clear();
        for _ in 0..N {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            v.push(x);
        }
        v.sort_unstable();
    }
    std::hint::black_box(&v);
    t0.elapsed().as_secs_f64() * 1e6
}

/// The mixed kernel's time on the reference host, in µs.
pub const MIXED_REF_US: f64 = 2000.0;

/// Wall µs of a fixed kernel of mixed library work: 6000 rounds of
/// formatting a number into a string, a SipHash map update and lookup,
/// then a sort of the map's keys. Like [`calibrate`] it calls into none
/// of the repository's crates. The host's slow spells slow it about as
/// much as they slow the injection campaign (branchy code, many small
/// functions, a hash table); they slow the sort-based kernel less.
pub fn calibrate_mixed() -> f64 {
    use std::collections::hash_map::DefaultHasher;
    use std::collections::HashMap;
    use std::fmt::Write;
    use std::hash::BuildHasherDefault;
    let mut s = String::new();
    // Fixed SipHash keys: every call does the same work.
    let mut h: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut x: u64 = 0x5151_7a7a_1234_9999;
    let t0 = Instant::now();
    for i in 0..6000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        s.clear();
        let _ = write!(s, "{x:x}-{i}-{:.3}", (x % 1000) as f64 / 7.0);
        *h.entry(s.len() as u64 ^ (x & 0xfff)).or_insert(0) += 1;
        if let Some(v) = h.get(&(x & 0xfff)) {
            x = x.wrapping_add(*v);
        }
    }
    let mut keys: Vec<u64> = h.keys().copied().collect();
    keys.sort_unstable();
    std::hint::black_box((&keys, &s));
    t0.elapsed().as_secs_f64() * 1e6
}

/// Calibration samples taken through a run.
///
/// The shared host's speed drifts by tens of percent over minutes
/// (the same run, on the same seed, moved that much from one minute to
/// the next while a pure CPU loop moved with it). Time metrics are
/// multiplied by [`HostSpeed::scale`] — reference kernel time over the
/// run's median kernel time — so they read as on the reference host
/// and the drift cancels; rates are divided by it.
#[derive(Debug, Default)]
pub struct HostSpeed {
    samples: Vec<f64>,
}

impl HostSpeed {
    pub fn sample(&mut self) {
        self.samples.push(calibrate());
    }

    /// Reference over measured kernel time: above 1 on a slower host.
    pub fn scale(&self) -> f64 {
        CALIBRATION_REF_US / median(&self.samples)
    }

    /// The note every run prints about its scaling.
    pub fn note(&self) -> String {
        format!(
            "host speed: calibration kernel median {:.1} us over {} samples (reference \
             {CALIBRATION_REF_US} us); time metrics are raw x {:.4}, rates raw / {:.4}",
            median(&self.samples),
            self.samples.len(),
            self.scale(),
            self.scale()
        )
    }
}

/// Online CPUs as the standard library sees them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The first `model name` line of `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Filesystem type of the mount holding `dir` (longest mount-point
/// prefix in `/proc/mounts`).
pub fn filesystem_of(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".to_owned();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".to_owned();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let _device = f.next()?;
            let point = f.next()?;
            let fstype = f.next()?;
            dir.starts_with(point).then(|| (point.len(), fstype.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, t)| t)
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
