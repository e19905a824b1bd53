//! Sample statistics and process measurements.

use std::time::Duration;

/// The `q`-quantile (`0.0..=1.0`) of `samples` by linear interpolation
/// between closest ranks, or `None` for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let last = sorted.len().checked_sub(1)?;
    let rank = q.clamp(0.0, 1.0) * last as f64;
    let below = (0..last).take_while(|i| (i + 1) as f64 <= rank).count();
    let lo = *sorted.get(below)?;
    let hi = sorted.get(below + 1).copied().unwrap_or(lo);
    Some(lo + (hi - lo) * (rank - below as f64))
}

/// The median of `samples`, or `None` for an empty sample.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// The median of `durations` in seconds.
pub fn median_secs(durations: &[Duration]) -> Option<f64> {
    let secs: Vec<f64> = durations.iter().map(Duration::as_secs_f64).collect();
    median(&secs)
}

/// The process's peak resident set (`VmHWM`) in MiB, read from
/// `/proc/self/status`.
///
/// # Errors
///
/// Fails when the status file is unreadable or has no parsable `VmHWM` line.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|value| value.trim().parse::<u64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(quantile(&[0.0, 10.0], 0.9), Some(9.0));
        assert_eq!(quantile(&[5.0, 1.0, 3.0], 1.0), Some(5.0));
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
