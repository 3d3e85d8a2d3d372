//! Percentiles over raw samples, by nearest rank.
//!
//! A tail percentile is only reported when at least [`MIN_BEYOND`]
//! samples lie beyond it; [`tail_percentile`] picks the highest
//! percentile of [`LADDER`] a sample count supports.

/// Percentiles the benchmark reports, in per-mille.
pub const LADDER: [u32; 4] = [500, 900, 990, 999];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Zero-based nearest-rank index of per-mille percentile `pm` among `n`
/// sorted samples. Integer arithmetic, so `p99.9` of 1000 samples is
/// exactly rank 999.
fn rank(n: usize, pm: u32) -> usize {
    let r = (pm as usize * n).div_ceil(1000);
    r.clamp(1, n.max(1)) - 1
}

/// Samples ranked strictly above percentile `pm` among `n`.
pub fn beyond(n: usize, pm: u32) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, pm) - 1
}

/// The highest percentile of [`LADDER`] (per-mille) with at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when even the median has
/// too few.
pub fn tail_percentile(n: usize) -> Option<u32> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&pm| beyond(n, pm) >= MIN_BEYOND)
}

/// Sorted copy of `v`.
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Per-mille percentile `pm` of already sorted samples (NaN when empty).
pub fn percentile(sorted: &[f64], pm: u32) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), pm)]
}

/// Median of unsorted samples (NaN when empty).
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v), 500)
}

/// Percentiles taken per window of consecutive samples and summarised
/// by one percentile across the windows, so a stretch of a run that the
/// host slowed moves the result by its windows, not by its share of the
/// samples. A trailing partial window is dropped unless it is the only
/// one.
#[derive(Debug)]
pub struct Windows {
    pms: Vec<u32>,
    size: usize,
    across: u32,
    /// Per window, the percentile for each of `pms`.
    values: Vec<Vec<f64>>,
    buf: Vec<f64>,
    samples: usize,
}

impl Windows {
    /// Tracks per-mille percentiles `pms` in windows of `size` samples,
    /// reported as per-mille percentile `across` over the windows.
    pub fn new(pms: &[u32], size: usize, across: u32) -> Windows {
        Windows {
            pms: pms.to_vec(),
            size,
            across,
            values: Vec::new(),
            buf: Vec::with_capacity(size),
            samples: 0,
        }
    }

    pub fn extend(&mut self, samples: impl IntoIterator<Item = f64>) {
        for v in samples {
            self.buf.push(v);
            if self.buf.len() == self.size {
                self.close();
            }
        }
    }

    fn close(&mut self) {
        self.buf.sort_by(f64::total_cmp);
        let row = self
            .pms
            .iter()
            .map(|&pm| percentile(&self.buf, pm))
            .collect();
        self.values.push(row);
        self.samples += self.buf.len();
        self.buf.clear();
    }

    /// Percentile `across` over windows of percentile `pm` (one of those
    /// passed to [`Windows::new`]), the samples in all windows, and the
    /// samples in one window.
    pub fn result(&mut self, pm: u32) -> (f64, usize, usize) {
        if self.values.is_empty() && !self.buf.is_empty() {
            self.close();
        }
        let col = self
            .pms
            .iter()
            .position(|&p| p == pm)
            .expect("percentile tracked");
        let per_window = sorted(&self.values.iter().map(|row| row[col]).collect::<Vec<_>>());
        let thinnest = self.samples.checked_div(self.values.len()).unwrap_or(0);
        (percentile(&per_window, self.across), self.samples, thinnest)
    }

    /// How the windows are summarised, for the printed notes.
    pub fn describe(&self) -> String {
        format!(
            "{} over {} windows of {} samples",
            label(self.across),
            self.values.len(),
            self.size
        )
    }
}

/// Label for a per-mille percentile: `p50`, `p99`, `p99.9`.
pub fn label(pm: u32) -> String {
    if pm.is_multiple_of(10) {
        format!("p{}", pm / 10)
    } else {
        format!("p{}.{}", pm / 10, pm % 10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(500));
        assert_eq!(tail_percentile(99), Some(500));
        assert_eq!(tail_percentile(100), Some(900));
        assert_eq!(tail_percentile(999), Some(900));
        assert_eq!(tail_percentile(1000), Some(990));
        assert_eq!(tail_percentile(9999), Some(990));
        assert_eq!(tail_percentile(10_000), Some(999));
        assert_eq!(tail_percentile(1_000_000), Some(999));
        for n in 0..25_000 {
            match tail_percentile(n) {
                Some(pm) => {
                    assert!(beyond(n, pm) >= MIN_BEYOND, "n={n} pm={pm}");
                    // Nothing higher on the ladder qualifies.
                    for &higher in LADDER.iter().filter(|&&h| h > pm) {
                        assert!(beyond(n, higher) < MIN_BEYOND, "n={n} {higher}");
                    }
                }
                None => assert!(beyond(n, 500) < MIN_BEYOND),
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 500), 50.0);
        assert_eq!(percentile(&v, 900), 90.0);
        assert_eq!(percentile(&v, 990), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
        assert_eq!(label(990), "p99");
        assert_eq!(label(999), "p99.9");
    }

    #[test]
    fn windows_summarise_per_window_percentiles() {
        let mut w = Windows::new(&[500, 990], 4000, 500);
        for shift in [0.0, 1.0, 1e6] {
            w.extend((1..=4000).map(|x| f64::from(x) + shift));
        }
        w.extend([7.0]);
        assert_eq!(w.result(990), (3961.0, 12_000, 4000));
        assert_eq!(w.result(500).0, 2001.0);
        assert_eq!(w.describe(), "p50 over 3 windows of 4000 samples");
        // The lower quartile over windows leaves out the slowest stretches.
        let mut q = Windows::new(&[990], 100, 250);
        for shift in [5.0, 0.0, 9.0, 7.0] {
            q.extend((1..=100).map(|x| f64::from(x) + shift));
        }
        assert_eq!(q.result(990).0, 99.0);
        // A run shorter than one window still reports its samples.
        let mut short = Windows::new(&[500], 4000, 500);
        short.extend([3.0, 1.0, 2.0]);
        assert_eq!(short.result(500), (2.0, 3, 3));
        assert_eq!(Windows::new(&[500], 10, 500).result(500).2, 0);
    }
}
