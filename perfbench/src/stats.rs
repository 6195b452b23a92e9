//! Order statistics and metric naming rules.

/// The `q`-quantile of `sorted` (ascending) by linear interpolation between
/// closest ranks (the NumPy default).
///
/// # Panics
///
/// On an empty slice or `q` outside `[0, 1]`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sort a sample set in place and return it, for [`quantile`].
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of an unsorted sample set.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values.to_vec()), 0.5)
}

/// How many of `n` samples lie strictly above the `ppm`-per-million
/// quantile's rank.
pub fn beyond(n: usize, ppm: u64) -> usize {
    let rank = (n as u64 * ppm).div_ceil(1_000_000);
    n - rank as usize
}

/// The tail percentiles a timing may be reported at, highest first, in
/// parts per million.
const TAIL_LADDER: [u64; 4] = [999_900, 999_000, 990_000, 900_000];

/// The highest percentile (parts per million) that leaves at least ten of
/// `n` samples beyond it, or `None` when even the 90th does not.
pub fn tail_ppm(n: usize) -> Option<u64> {
    TAIL_LADDER.into_iter().find(|&ppm| beyond(n, ppm) >= 10)
}

/// The `ppm` quantile of `samples`, refused when fewer than ten samples
/// lie beyond it (the tail would be a single outlier, not a percentile).
///
/// # Errors
///
/// A message naming the sample count when the rule refuses the tail.
pub fn tail(samples: &[f64], ppm: u64) -> Result<f64, String> {
    match tail_ppm(samples.len()) {
        Some(best) if best >= ppm => Ok(quantile(&sorted(samples.to_vec()), ppm as f64 / 1e6)),
        _ => Err(format!(
            "{} samples leave fewer than ten beyond the {:.1}th percentile",
            samples.len(),
            ppm as f64 / 1e4
        )),
    }
}

/// Check a metric name against the benchmark's naming rule: starts with a
/// letter or digit, at most 64 characters of `[A-Za-z0-9_.-]`.
///
/// # Errors
///
/// A message naming the offending name.
pub fn check_name(name: &str) -> Result<(), String> {
    let ok_first = name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
    let ok_rest = name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'));
    if ok_first && ok_rest && name.len() <= 64 {
        Ok(())
    } else {
        Err(format!("metric name {name:?} is not [A-Za-z0-9][A-Za-z0-9_.-]{{0,63}}"))
    }
}

/// Check a unit against the rule: 1 to 16 characters of `[A-Za-z0-9_/%.-]`.
///
/// # Errors
///
/// A message naming the offending unit.
pub fn check_unit(unit: &str) -> Result<(), String> {
    let ok = !unit.is_empty()
        && unit.len() <= 16
        && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c));
    if ok {
        Ok(())
    } else {
        Err(format!("unit {unit:?} is not [A-Za-z0-9_/%.-]{{1,16}}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let s = sorted(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert!((quantile(&s, 0.25) - 1.75).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_rule_picks_the_highest_percentile_with_ten_beyond() {
        assert_eq!(beyond(10_000, 999_000), 10);
        assert_eq!(beyond(9_999, 999_000), 9);
        assert_eq!(tail_ppm(100_000), Some(999_900));
        assert_eq!(tail_ppm(99_999), Some(999_000));
        assert_eq!(tail_ppm(10_000), Some(999_000));
        assert_eq!(tail_ppm(9_999), Some(990_000));
        assert_eq!(tail_ppm(1_000), Some(990_000));
        assert_eq!(tail_ppm(100), Some(900_000));
        assert_eq!(tail_ppm(99), None);
        assert_eq!(tail_ppm(0), None);
    }

    #[test]
    fn tail_refuses_a_percentile_the_samples_cannot_support() {
        let samples: Vec<f64> = (0..10_000).map(f64::from).collect();
        assert!((tail(&samples, 999_000).unwrap() - 9989.001).abs() < 1e-6);
        assert!(tail(&samples[..9_999], 999_000).unwrap_err().contains("9999 samples"));
        assert!(tail(&samples[..99], 900_000).is_err());
        assert!(tail(&samples[..100], 900_000).is_ok());
    }

    #[test]
    fn metric_names_follow_the_rule() {
        for good in ["run_s", "pram.exec_self_ns", "trace.unattributed_share", "9lives", "a-b"] {
            check_name(good).unwrap();
        }
        for bad in ["", "_x", ".x", "run s", "run/s", "µs", "x\n", &"a".repeat(65)] {
            assert!(check_name(bad).is_err(), "{bad:?} accepted");
        }
        check_name(&"a".repeat(64)).unwrap();
        for good in ["ms", "s", "1/s", "count", "%", "bytes"] {
            check_unit(good).unwrap();
        }
        for bad in ["", "µs", "per tick", &"u".repeat(17)] {
            assert!(check_unit(bad).is_err(), "{bad:?} accepted");
        }
    }
}
