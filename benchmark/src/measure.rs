//! Statistics and process counters: the percentile rule, quartile spread,
//! and CPU time / peak RSS read from `/proc`.

/// Sorts ascending. Timings are never NaN.
pub fn sort(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
}

/// A percentile was asked of too few samples to mean anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooFewSamples {
    /// Samples that lie beyond the requested percentile.
    pub beyond: usize,
}

/// A percentile is only reported when at least this many samples lie
/// beyond it: the tail it summarises must itself be a sample, not an
/// accident.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice, with no sample-count
/// guard. `p` in (0, 1].
pub fn rank_percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// [`rank_percentile`], refused unless [`MIN_BEYOND`] samples lie beyond the
/// chosen rank (so p90 needs 100 samples, p50 needs 20).
pub fn percentile(sorted: &[f64], p: f64) -> Result<f64, TooFewSamples> {
    let beyond = sorted.len().saturating_sub(rank(sorted.len().max(1), p));
    if sorted.is_empty() || beyond < MIN_BEYOND {
        return Err(TooFewSamples { beyond });
    }
    Ok(rank_percentile(sorted, p))
}

/// Plain median (mean of the middle two for an even count). For the small
/// fixed-count samples behind per-layer numbers, where [`percentile`] would
/// refuse.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them, so the
/// `aa` mode judges spread the way the driver does. Needs two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    sort(&mut v);
    let ld = v.len();
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// Linux reports process times in ticks of 1/100 s on every supported
/// architecture (`USER_HZ`); std has no `sysconf` to ask.
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds of this process, all threads, from
/// `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let field = |n: usize| -> f64 {
        rest.split(' ')
            .nth(n - 3)
            .and_then(|s| s.parse().ok())
            .expect("numeric stat field")
    };
    (field(14) + field(15)) / TICKS_PER_S
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        // p90 of 99 samples leaves 9 beyond rank 90: refused.
        assert_eq!(percentile(&ramp(99), 0.9), Err(TooFewSamples { beyond: 9 }));
        // 100 samples leave exactly 10 beyond rank 90.
        assert_eq!(percentile(&ramp(100), 0.9), Ok(90.0));
        // p50 needs 20.
        assert!(percentile(&ramp(19), 0.5).is_err());
        assert_eq!(percentile(&ramp(20), 0.5), Ok(10.0));
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn rank_percentile_is_nearest_rank() {
        let v = ramp(10);
        assert_eq!(rank_percentile(&v, 0.5), 5.0);
        assert_eq!(rank_percentile(&v, 0.9), 9.0);
        assert_eq!(rank_percentile(&v, 1.0), 10.0);
        assert_eq!(rank_percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let (q1, q3) = quartiles(&ramp(10));
        assert_eq!((q1, q3), (2.75, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        let (q1, q3) = quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]);
        assert_eq!((q1, q3), (1.0, 4.5));
        assert_eq!(median(&[3.0, 1.0, 4.0, 1.0, 5.0]), 3.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
    }

    #[test]
    fn proc_counters_read() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
