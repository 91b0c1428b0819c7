//! Order statistics for repetition samples.

/// The three quartile cut points, computed as Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method), so a spread measured here is the spread the driver measures.
/// Needs at least two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

pub fn median(values: &[f64]) -> f64 {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    match data.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => data[n / 2],
        n => (data[n / 2 - 1] + data[n / 2]) / 2.0,
    }
}

/// Median with first and third quartile; one sample has no spread, so
/// its quartiles are the sample itself.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let median = median(values);
        let [q1, _, q3] = quartiles(values).unwrap_or([median; 3]);
        Summary {
            median,
            q1,
            q3,
            n: values.len(),
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The percentiles this benchmark ever reports, per mille (integers,
/// so that "ten beyond" is decided exactly).
const REPORTED_PER_MILLE: [usize; 4] = [500, 900, 950, 990];

/// The highest reported percentile that still has at least ten samples
/// beyond it; with fewer than twenty samples that is the median.
pub fn highest_percentile(samples: usize) -> f64 {
    REPORTED_PER_MILLE
        .into_iter()
        .rev()
        .find(|pm| samples * (1000 - pm) >= 10 * 1000)
        .map_or(50.0, |pm| pm as f64 / 10.0)
}

/// Nearest-rank percentile of `values` (sorted in place).
pub fn percentile(values: &mut [u64], p: f64) -> u64 {
    assert!(!values.is_empty(), "percentile of no samples");
    values.sort_unstable();
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7], n=4) == [2.0, 4.0, 6.0]
        assert_eq!(
            quartiles(&[7.0, 1.0, 3.0, 2.0, 6.0, 5.0, 4.0]),
            Some([2.0, 4.0, 6.0])
        );
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some([7.5, 15.0, 22.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_and_summary() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!((s.median, s.q1, s.q3, s.n), (4.0, 2.0, 6.0, 7));
        assert_eq!(s.spread(), 1.0);
        let one = Summary::of(&[5.0]);
        assert_eq!(
            (one.median, one.q1, one.q3, one.spread()),
            (5.0, 5.0, 5.0, 0.0)
        );
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_percentile(7), 50.0);
        assert_eq!(highest_percentile(19), 50.0);
        assert_eq!(highest_percentile(20), 50.0);
        assert_eq!(highest_percentile(100), 90.0);
        assert_eq!(highest_percentile(200), 95.0);
        assert_eq!(highest_percentile(999), 95.0);
        assert_eq!(highest_percentile(1000), 99.0);
        assert_eq!(highest_percentile(12_010), 99.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 99.0), 99);
        assert_eq!(percentile(&mut v, 50.0), 50);
        assert_eq!(percentile(&mut [7], 99.0), 7);
    }
}
