//! Helpers of the repository benchmark that carry its measurement
//! rules, kept in a library so `tests/helpers.rs` can pin them down:
//!
//! * [`stats`] — percentiles from raw samples, with the rule that a
//!   percentile is reported only when at least ten samples lie beyond it;
//! * [`sched`] — open-loop schedules (fixed rate, or trace timestamps
//!   compressed by a fixed factor) and generator lateness;
//! * [`counters`] — parsing of Prometheus `/metrics` text and
//!   `/proc/<pid>/status`, and counter deltas around a measured phase;
//! * [`mix`] — the weighted choice behind every request mix;
//! * [`kernels`] — the daily sweep kernel by kernel, timed from outside;
//! * [`report`] — what a run prints, and the rule that every end-to-end
//!   metric is measured and finite.

pub mod counters;
pub mod kernels;
pub mod mix;
pub mod report;
pub mod sched;
pub mod stats;
