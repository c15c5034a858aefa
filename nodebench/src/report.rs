//! What a run reports: checks, host stamp, notes and the final JSON
//! line.

use std::fmt::Write as _;

use crate::stats::percentile;
use crate::trace::{Kind, KindTotals, Layer};

/// Every per-layer metric with its unit, as `BENCHMARK.json` lists them
/// (tests keep the two in step). Each workload reports all of them.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("sim.events", "count"),
    ("sim.queue_us", "us"),
    ("callproc.calls", "count"),
    ("callproc.setup_us", "us"),
    ("callproc.poll_us", "us"),
    ("callproc.teardown_us", "us"),
    ("db.events_offered", "count"),
    ("db.events_accepted", "count"),
    ("db.events_shed", "count"),
    ("db.events_backpressured", "count"),
    ("db.captured", "count"),
    ("db.captured_per_call", "ratio"),
    ("db.bridge_calls", "count"),
    ("db.bridge_us", "us"),
    ("audit.drain_us", "us"),
    ("audit.drained", "count"),
    ("audit.cycle_us", "us"),
    ("audit.cycles", "count"),
    ("audit.records_checked", "count"),
    ("audit.findings", "count"),
    ("audit.screen_ratio", "ratio"),
    ("audit.supervise_us", "us"),
    ("audit.restarts", "count"),
    ("recovery.cycle_us", "us"),
    ("recovery.attempted", "count"),
    ("recovery.verified", "count"),
    ("recovery.failed", "count"),
    ("recovery.verify_ratio", "ratio"),
    ("store.sync_us", "us"),
    ("store.syncs", "count"),
    ("store.records", "count"),
    ("store.journal_bytes", "B"),
    ("store.bytes_per_call", "B"),
    ("store.fsyncs", "count"),
    ("store.golden_read_us", "us"),
    ("store.golden_reads", "count"),
    ("store.golden_bytes", "B"),
    ("store.ckpt_us", "us"),
    ("store.full_ckpts", "count"),
    ("store.delta_ckpts", "count"),
    ("store.compact_us", "us"),
    ("store.reclaimed_bytes", "B"),
    ("store.recover_us", "us"),
    ("isa.load_us", "us"),
    ("isa.exec_us", "us"),
    ("isa.steps", "count"),
    ("isa.superblock_entries", "count"),
    ("isa.block_steps_ratio", "ratio"),
    ("pecos.instrument_us", "us"),
    ("pecos.handle_us", "us"),
    ("pecos.detections", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
];

/// Named metrics in insertion order.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics put as 0 by [`Metrics::fill_idle_layers`].
    idle: Vec<&'static str>,
}

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.entries.push((name, value, unit));
    }

    /// Puts 0 for every per-layer metric not put yet — those of layers
    /// the workload does not exercise — and returns their names.
    pub fn fill_idle_layers(&mut self) -> &[&'static str] {
        for (name, unit) in PER_LAYER {
            if !self.entries.iter().any(|e| e.0 == name) {
                self.put(name, 0.0, unit);
                self.idle.push(name);
            }
        }
        &self.idle
    }

    #[cfg(test)]
    pub fn idle(&self) -> &[&'static str] {
        &self.idle
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|(n, _, _)| *n == name).map(|&(_, v, _)| v)
    }

    /// `(name, unit)` of every metric, sorted by name.
    #[cfg(test)]
    pub fn sorted(&self) -> Vec<(String, String)> {
        let mut v: Vec<(String, String)> =
            self.entries.iter().map(|&(n, _, u)| (n.to_owned(), u.to_owned())).collect();
        v.sort();
        v
    }
}

/// The outcome of one run.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    lines: Vec<String>,
}

impl Default for Outcome {
    fn default() -> Self {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Metrics::default(),
            lines: Vec::new(),
        }
    }
}

impl Outcome {
    /// Records a correctness check; a failing one fails the run.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.correct &= ok;
        self.lines.push(format!("# check {}: {what}", if ok { "ok" } else { "FAILED" }));
    }

    pub fn note(&mut self, what: &str) {
        self.lines.push(format!("# {what}"));
    }

    pub fn stamp(&mut self, key: &str, value: &str) {
        self.lines.push(format!("# stamp {key}: {value}"));
    }

    /// Puts the `q`-th percentile of `samples` (in µs) times `scale`
    /// under `name`, noting the raw value and the sample counts behind
    /// it, or fails the run when the tail is too thin to report.
    pub fn put_percentile(&mut self, name: &'static str, samples: &[f64], q: f64, scale: f64) {
        match percentile(samples, q) {
            Ok(p) => {
                self.note(&format!(
                    "{name}: raw {:.3} us, {} samples, {} beyond",
                    p.value, p.samples, p.beyond
                ));
                self.metrics.put(name, p.value * scale, "us");
            }
            Err(e) => self.check(false, &format!("{name}: {e}")),
        }
    }

    /// Notes each layer's and each span kind's self time with its share
    /// of the traced wall time.
    pub fn layer_shares(&mut self, totals: &KindTotals, root_us: f64) {
        for layer in Layer::ALL {
            let us = totals.layer_us(layer);
            if us > 0.0 {
                self.note(&format!(
                    "layer {:<9} {:>14.1} us {:>6.2}%",
                    layer.name(),
                    us,
                    100.0 * us / root_us
                ));
            }
        }
        for kind in Kind::ALL {
            let us = totals.self_us(kind);
            if totals.count(kind) > 0 {
                self.note(&format!(
                    "span  {:<18} {:>10} spans {:>14.1} us self {:>6.2}%",
                    kind.name(),
                    totals.count(kind),
                    us,
                    100.0 * us / root_us
                ));
            }
        }
    }

    /// Prints the notes, then the result as the last line. A metric
    /// that is not a finite number fails the run instead of producing
    /// invalid JSON.
    pub fn print(mut self) {
        let bad: Vec<&str> =
            self.metrics.entries.iter().filter(|(_, v, _)| !v.is_finite()).map(|e| e.0).collect();
        for name in bad {
            self.check(false, &format!("{name} is a finite number"));
        }
        if self.attempted == 0 {
            self.check(false, "at least one operation was attempted");
        }
        for line in &self.lines {
            println!("{line}");
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        let mut first = true;
        for &(name, value, unit) in &self.metrics.entries {
            if !value.is_finite() {
                continue;
            }
            if !first {
                json.push_str(", ");
            }
            first = false;
            let _ = write!(json, "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        json.push_str("}}");
        println!("{json}");
    }
}
