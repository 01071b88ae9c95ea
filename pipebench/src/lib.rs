//! # pipebench — the campaign-pipeline benchmark
//!
//! One command (`cargo run --release --manifest-path pipebench/Cargo.toml
//! -- --workload <name> --seed <n> --seconds <s> --trace <0|1>`) runs a
//! workload's campaign files through the real pipeline, checks the
//! outputs, and prints every metric by name with its unit. `README.md`
//! beside this crate documents the workloads, the metric → layer →
//! workload map and the checks.
//!
//! * [`workloads`] — the campaign files of each workload, made from the
//!   seed, and the figures their records feed;
//! * [`pipeline`] — one repetition through parse → expand → build → run
//!   → finish → encode → decode → aggregate → render, timed per stage;
//! * [`layers`] — the traced run's node and qdisc timing decorators.
//! * [`calib`] — the host clock that rescales the timed metrics to a
//!   nominal host speed.

pub mod calib;
pub mod layers;
pub mod pipeline;
pub mod workloads;

/// The traced run fails when its summed stage spans differ from its wall
/// by more than this share of the wall.
pub const COVERAGE_TOLERANCE: f64 = 0.05;

/// Median of `xs` (the mean of the middle two for an even count).
///
/// # Panics
/// If `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
