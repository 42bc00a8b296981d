//! Open-loop schedules.
//!
//! Every request has a due time fixed before the run starts, whatever the
//! server does; latency is timed from that due time, so a stall also
//! charges the requests that queued up behind it. The generator's own
//! lateness (send time minus due time) is reported beside it.

use std::time::Duration;

/// Due offset of the `i`-th request at a fixed `rate` (requests per
/// second), counted from the start of the phase.
pub fn due_at_rate(i: u64, rate: f64) -> Duration {
    Duration::from_secs_f64(i as f64 / rate)
}

/// Number of requests a fixed-rate phase of `duration` schedules.
pub fn count_at_rate(rate: f64, duration: Duration) -> u64 {
    (rate * duration.as_secs_f64()).floor() as u64
}

/// Due offsets for event timestamps (seconds, ascending), compressed by
/// `factor`: an event `factor` trace-seconds after the first one is due
/// one second after the phase starts.
pub fn compress(timestamps: &[u64], factor: f64) -> Vec<Duration> {
    let Some(&t0) = timestamps.first() else {
        return Vec::new();
    };
    timestamps
        .iter()
        .map(|&t| Duration::from_secs_f64(t.saturating_sub(t0) as f64 / factor))
        .collect()
}

/// How late the generator sent a request: send offset minus due offset,
/// zero when it was on time.
pub fn lateness(due: Duration, sent: Duration) -> Duration {
    sent.saturating_sub(due)
}

/// Whether latencies ordered by due time show a growing backlog: the
/// median of the last third exceeds twice the median of the first third
/// plus `slack_us`. A queue that keeps up has flat thirds; one that falls
/// behind grows linearly through the phase.
pub fn backlog_grows(latencies_by_due_us: &[f64], slack_us: f64) -> bool {
    let n = latencies_by_due_us.len();
    if n < 3 {
        return false;
    }
    let third = n / 3;
    let first = crate::stats::median(&latencies_by_due_us[..third]);
    let last = crate::stats::median(&latencies_by_due_us[n - third..]);
    last > 2.0 * first + slack_us
}

/// A geometric ladder of offered rates from `low` to `high`, each rung at
/// most `step` (a fraction, e.g. 0.05) above the previous one.
pub fn ladder(low: f64, high: f64, step: f64) -> Vec<f64> {
    let mut rungs = vec![low];
    while let Some(&last) = rungs.last() {
        let next = (last * (1.0 + step)).floor();
        if next > high {
            break;
        }
        rungs.push(next);
    }
    rungs
}

/// Index of the highest rung for which `passes` holds, probing from the
/// top: down in strides of `coarse` rungs until one passes, then a binary
/// search between it and the failed rung above. Finds the top of the
/// passing band even when low rates fail too (a server that is slower
/// when idle), as long as the passing rates are contiguous.
pub fn highest_passing(
    rungs: usize,
    coarse: usize,
    mut passes: impl FnMut(usize) -> bool,
) -> Option<usize> {
    let mut i = rungs.checked_sub(1)?;
    let mut failed_above = None;
    let found = loop {
        if passes(i) {
            break i;
        }
        if i == 0 {
            return None;
        }
        failed_above = Some(i);
        i = i.saturating_sub(coarse.max(1));
    };
    let (mut lo, Some(mut hi)) = (found, failed_above) else {
        return Some(found);
    };
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if passes(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}
