//! Aggregation of per-child samples into the reported figures.

/// Median, extremes and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

/// Summarize `samples`; `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let (&min, &max) = (sorted.first()?, sorted.last()?);
    let median = if n % 2 == 1 { sorted[n / 2] } else { (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0 };
    Some(Summary { median, min, max, n })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_count_takes_the_middle_sample() {
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(s, Summary { median: 2.0, min: 1.0, max: 3.0, n: 3 });
    }

    #[test]
    fn even_count_averages_the_middle_pair() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(s.median, 2.5);
        assert_eq!((s.min, s.max, s.n), (1.0, 4.0, 4));
    }

    #[test]
    fn single_sample_and_empty() {
        assert_eq!(summarize(&[7.5]).unwrap(), Summary { median: 7.5, min: 7.5, max: 7.5, n: 1 });
        assert_eq!(summarize(&[]), None);
    }
}
