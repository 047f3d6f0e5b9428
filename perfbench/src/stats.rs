//! Order statistics over timing samples.

use std::time::Duration;

/// Nearest-rank percentile (`q` in `(0, 1]`) of `xs`.
///
/// A failed operation is recorded as `f64::INFINITY`, so it counts as
/// missing every percentile above the share of successes; nearest rank
/// (no interpolation) keeps such a sample from turning a percentile
/// into NaN. Returns NaN for an empty sample.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `xs` (nearest rank).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds in `d`.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Peak resident set size of this process in MiB (`VmHWM` of
/// `/proc/self/status`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Resets `VmHWM` to the current resident size (writes `5` to
/// `/proc/self/clear_refs`), so that a later [`peak_rss_mb`] leaves out
/// memory freed before the reset.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("resetting VmHWM: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), 50.0);
        assert_eq!(percentile(&xs, 0.9), 90.0);
        assert_eq!(percentile(&[3.0], 0.9), 3.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn failures_miss_the_tail() {
        let mut xs = vec![1.0; 95];
        xs.extend([f64::INFINITY; 5]);
        assert_eq!(percentile(&xs, 0.9), 1.0);
        xs.extend([f64::INFINITY; 10]);
        assert_eq!(percentile(&xs, 0.9), f64::INFINITY);
    }
}
