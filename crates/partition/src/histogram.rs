//! Record-length histograms.

use ssj_text::Record;

/// Counts of records per length. Index 0 is unused (records are non-empty).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LengthHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl LengthHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty histogram pre-sized for lengths up to `max_len`.
    pub fn with_max_len(max_len: usize) -> Self {
        Self {
            counts: vec![0; max_len + 1],
            total: 0,
        }
    }

    /// Builds a histogram from a record sample.
    pub fn from_records<'a>(records: impl IntoIterator<Item = &'a Record>) -> Self {
        let mut h = Self::new();
        for r in records {
            h.add(r.len());
        }
        h
    }

    /// Counts one record of the given length.
    pub fn add(&mut self, len: usize) {
        if len >= self.counts.len() {
            self.counts.resize(len + 1, 0);
        }
        self.counts[len] += 1;
        self.total += 1;
    }

    /// Count at a length (0 beyond the observed maximum).
    #[inline]
    pub fn count(&self, len: usize) -> u64 {
        self.counts.get(len).copied().unwrap_or(0)
    }

    /// Largest length with a non-zero count (0 if empty).
    pub fn max_len(&self) -> usize {
        self.counts.iter().rposition(|&c| c > 0).unwrap_or(0)
    }

    /// Total records counted.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Whether nothing has been counted.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Mean record length (0.0 if empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: u64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(l, &c)| l as u64 * c)
            .sum();
        sum as f64 / self.total as f64
    }

    /// Adds another histogram into this one.
    pub fn merge(&mut self, other: &LengthHistogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (l, &c) in other.counts.iter().enumerate() {
            self.counts[l] += c;
        }
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssj_text::{RecordId, TokenId};

    fn rec(len: usize) -> Record {
        Record::from_sorted(RecordId(0), 0, (0..len as u32).map(TokenId).collect())
    }

    #[test]
    fn counts_and_totals() {
        let mut h = LengthHistogram::new();
        h.add(3);
        h.add(3);
        h.add(7);
        assert_eq!(h.count(3), 2);
        assert_eq!(h.count(7), 1);
        assert_eq!(h.count(100), 0);
        assert_eq!(h.total(), 3);
        assert_eq!(h.max_len(), 7);
    }

    #[test]
    fn from_records() {
        let records = vec![rec(2), rec(2), rec(5)];
        let h = LengthHistogram::from_records(&records);
        assert_eq!(h.count(2), 2);
        assert_eq!(h.count(5), 1);
        assert!((h.mean() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn merge_sums() {
        let mut a = LengthHistogram::new();
        a.add(1);
        let mut b = LengthHistogram::new();
        b.add(1);
        b.add(9);
        a.merge(&b);
        assert_eq!(a.count(1), 2);
        assert_eq!(a.count(9), 1);
        assert_eq!(a.total(), 3);
        assert_eq!(a.max_len(), 9);
    }

    #[test]
    fn empty_histogram() {
        let h = LengthHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.max_len(), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
