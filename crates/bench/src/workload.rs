//! Workload construction shared by the experiments.

use ssj_text::Record;
use ssj_workloads::{DatasetProfile, StreamGenerator};

/// Fixed seed so every experiment run sees the same streams.
pub const SEED: u64 = 20200401;

/// Generates `n` records of a profile (deterministic).
pub fn records(profile: &DatasetProfile, n: usize) -> Vec<Record> {
    StreamGenerator::new(profile.clone(), SEED).take_records(n)
}

/// The two contrasting profiles most experiments sweep (short/skewed vs
/// long/heavy-tailed); `all` runs use the full four.
pub fn headline_profiles() -> Vec<DatasetProfile> {
    vec![DatasetProfile::aol(), DatasetProfile::enron()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_deterministic() {
        let a = records(&DatasetProfile::aol(), 100);
        let b = records(&DatasetProfile::aol(), 100);
        assert_eq!(a.len(), 100);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.tokens(), y.tokens());
        }
    }
}
