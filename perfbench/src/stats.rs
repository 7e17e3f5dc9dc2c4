//! Sample statistics: medians, quartiles and the tail percentile the
//! header reports beside every timing.

/// Quartiles `(q1, median, q3)` by the exclusive method, the default of
/// Python's `statistics.quantiles(values, n=4)`, so the spread printed
/// here is the spread a Python reader of the results would compute.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld == 1 {
        return (v[0], v[0], v[0]);
    }
    // Signed: with two samples the outer cuts extrapolate (delta < 0).
    let (ld, m) = (ld as i64, ld as i64 + 1);
    let cut = |i: i64| -> f64 {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The highest whole percentile from 50 to 99 that leaves at least ten
/// samples beyond it, with its value (nearest rank). With fewer than
/// twenty samples no such percentile exists, and the maximum is
/// returned, labelled 100.
pub fn tail(values: &[f64]) -> (u32, f64) {
    assert!(!values.is_empty(), "tail of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    for p in (50u32..100).rev() {
        let rank = (p as usize * n).div_ceil(100).max(1);
        if n - rank >= 10 {
            return (p, v[rank - 1]);
        }
    }
    (100, v[n - 1])
}

/// A named series of timing samples (seconds).
#[derive(Debug, Clone)]
pub struct Timing {
    /// Series name as printed in the header.
    pub name: String,
    /// One value per sample.
    pub values: Vec<f64>,
}

impl Timing {
    /// An empty series.
    pub fn new(name: impl Into<String>) -> Timing {
        Timing {
            name: name.into(),
            values: Vec::new(),
        }
    }

    /// Median of the samples.
    pub fn median(&self) -> f64 {
        median(&self.values)
    }

    /// Header line: sample count, median, quartile spread and tail.
    pub fn summary(&self) -> String {
        let (q1, q2, q3) = quartiles(&self.values);
        let spread = if q2 > 0.0 { (q3 - q1) / q2 } else { 0.0 };
        let (p, t) = tail(&self.values);
        format!(
            "{:<40} n={:<4} median={:.6}s q1={:.6}s q3={:.6}s spread={:.4} p{p}={:.6}s",
            self.name,
            self.values.len(),
            q2,
            q1,
            q3,
            spread,
            t
        )
    }

    /// The samples in the order they were taken (ms, 3 decimals).
    pub fn samples(&self) -> String {
        let ms: Vec<String> = self
            .values
            .iter()
            .map(|v| format!("{:.3}", v * 1e3))
            .collect();
        ms.join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v), (75, 30.0));
        let v: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(tail(&v), (66, 20.0));
        assert_eq!(tail(&[1.0, 2.0]).0, 100);
    }
}
