//! Order statistics and the bounded-memory latency histogram.

use std::time::Duration;

/// Nanoseconds of `d`, saturating at `u64::MAX`.
pub fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The `q`-quantile (0..=1) of `v` by the nearest-rank rule; sorts `v`.
/// 0 for an empty slice.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of `v` (the mean of the two middle values for even lengths);
/// sorts `v`. 0 for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Exact values below this are their own bucket.
const LINEAR: u64 = 1024;
/// Sub-buckets per power of two above `LINEAR` (relative error 1/64).
const SUB_BITS: u32 = 6;

/// A log-linear histogram of nanosecond durations: exact below 1024 ns,
/// within 1/64 relative error above. Fixed memory whatever the sample
/// count, so traced runs can record every span.
#[derive(Clone, Debug)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        let buckets = LINEAR as usize + ((64 - LINEAR.ilog2() as usize) << SUB_BITS);
        Hist {
            counts: vec![0; buckets],
            total: 0,
        }
    }
}

impl Hist {
    fn bucket(v: u64) -> usize {
        if v < LINEAR {
            return v as usize;
        }
        let e = v.ilog2();
        let sub = (v >> (e - SUB_BITS)) & ((1 << SUB_BITS) - 1);
        LINEAR as usize + (((e - LINEAR.ilog2()) as usize) << SUB_BITS) + sub as usize
    }

    /// The smallest value that lands in bucket `b`.
    fn floor(b: usize) -> u64 {
        if (b as u64) < LINEAR {
            return b as u64;
        }
        let rest = b - LINEAR as usize;
        let e = (rest >> SUB_BITS) as u32 + LINEAR.ilog2();
        let sub = (rest & ((1 << SUB_BITS) - 1)) as u64;
        (1 << e) | (sub << (e - SUB_BITS))
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.total += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `q`-quantile (nearest rank), as its bucket's lower bound; 0
    /// when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::floor(b) as f64;
            }
        }
        unreachable!("rank is at most the total count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_round_trip_and_stay_ordered() {
        let mut last = 0;
        for v in [0, 1, 1023, 1024, 1025, 5000, 1 << 20, u64::MAX] {
            let b = Hist::bucket(v);
            assert!(b >= last, "bucket order at {v}");
            last = b;
            let f = Hist::floor(b);
            assert!(f <= v && v - f <= v / 64, "floor {f} of {v}");
        }
    }

    #[test]
    fn quantiles_match_exact_ones_below_the_linear_range() {
        let mut h = Hist::default();
        let mut v: Vec<f64> = (1..=999).map(f64::from).collect();
        for &x in &v {
            h.record(x as u64);
        }
        assert_eq!(h.quantile(0.5), quantile(&mut v, 0.5));
        assert_eq!(h.quantile(0.99), quantile(&mut v, 0.99));
        assert_eq!(median(&mut [3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
