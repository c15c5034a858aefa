//! Regenerates paper Figure 5: prioritized vs unprioritized audit
//! under a **uniform** error distribution — escaped-error proportion
//! (a) and detection latency (b) at three error rates.
//!
//! ```sh
//! cargo run --release -p wtnc-bench --bin fig5
//! ```

fn main() {
    wtnc_bench::print_priority_figure(
        "Figure 5 — prioritized vs unprioritized audit, uniform error distribution",
        false,
        "escapes reduced 14.6-25.5% by prioritization (more at lower error rates); \
         average latency slightly HIGHER with prioritization under uniform errors",
    );
}
