//! Regenerates paper Figure 6: prioritized vs unprioritized audit when
//! errors arrive **proportionally to table access frequency** (the
//! software-bug / activity-related error model).
//!
//! ```sh
//! cargo run --release -p wtnc-bench --bin fig6
//! ```

fn main() {
    wtnc_bench::print_priority_figure(
        "Figure 6 — prioritized vs unprioritized audit, proportional error distribution",
        true,
        "absolute escapes much higher than uniform (~25% of injections), \
         prioritization still reduces them 10.5-12.5%, detection latency roughly equal",
    );
}
