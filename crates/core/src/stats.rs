//! Join-execution counters.
//!
//! Every joiner maintains a [`JoinStats`]; the experiment harness reads them
//! to report candidate counts, verification costs and bundle behaviour
//! (figures F5–F7 of the evaluation).

use std::fmt;

/// Counters describing the work a joiner performed.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct JoinStats {
    /// Records probed against the index.
    pub probed: u64,
    /// Records inserted into the index.
    pub indexed: u64,
    /// Posting-list entries touched during candidate generation.
    pub posting_hits: u64,
    /// Distinct candidates after deduplication.
    pub candidates: u64,
    /// Candidates removed by the length filter.
    pub length_filtered: u64,
    /// Candidates removed by the positional filter: PPJoin's, per record;
    /// the bundle joiner's, per candidate *bundle* — one count drops the
    /// verification of every member at once, on a bound over the probe's
    /// overlap with the representative.
    pub position_filtered: u64,
    /// Candidates removed by the suffix filter (PPJoin+ only).
    pub suffix_filtered: u64,
    /// Merge-based verifications performed: per candidate record, or per
    /// candidate bundle (one merge against its representative).
    pub verifications: u64,
    /// Token-merge steps spent in verification (cost proxy): the summed
    /// lengths of the two slices handed to the merge. A verification
    /// resumed after the scan's last shared position (PPJoin always, the
    /// bundle joiner when a hit fell in the representative's fully posted
    /// run) counts the two tails only.
    pub verify_steps: u64,
    /// Cheap delta verifications performed (bundle batch verification).
    pub delta_verifications: u64,
    /// Result pairs emitted.
    pub results: u64,
    /// Index postings created.
    pub postings_created: u64,
    /// Records (or bundle members) evicted by the window.
    pub evicted: u64,
    /// Bundles created (bundle joiner only).
    pub bundles_created: u64,
    /// Records absorbed into an existing bundle (bundle joiner only).
    pub bundle_absorbed: u64,
}

impl JoinStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds another stats block into this one (for aggregating joiners).
    pub fn merge(&mut self, other: &JoinStats) {
        self.probed += other.probed;
        self.indexed += other.indexed;
        self.posting_hits += other.posting_hits;
        self.candidates += other.candidates;
        self.length_filtered += other.length_filtered;
        self.position_filtered += other.position_filtered;
        self.suffix_filtered += other.suffix_filtered;
        self.verifications += other.verifications;
        self.verify_steps += other.verify_steps;
        self.delta_verifications += other.delta_verifications;
        self.results += other.results;
        self.postings_created += other.postings_created;
        self.evicted += other.evicted;
        self.bundles_created += other.bundles_created;
        self.bundle_absorbed += other.bundle_absorbed;
    }

    /// Candidates per probe (selectivity of the filter stack).
    pub fn candidates_per_probe(&self) -> f64 {
        if self.probed == 0 {
            0.0
        } else {
            self.candidates as f64 / self.probed as f64
        }
    }

    /// Fraction of records absorbed into bundles rather than founding one.
    pub fn absorb_ratio(&self) -> f64 {
        let total = self.bundles_created + self.bundle_absorbed;
        if total == 0 {
            0.0
        } else {
            self.bundle_absorbed as f64 / total as f64
        }
    }
}

impl fmt::Display for JoinStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "probed             {:>12}", self.probed)?;
        writeln!(f, "indexed            {:>12}", self.indexed)?;
        writeln!(f, "posting hits       {:>12}", self.posting_hits)?;
        writeln!(f, "candidates         {:>12}", self.candidates)?;
        writeln!(f, "length filtered    {:>12}", self.length_filtered)?;
        writeln!(f, "position filtered  {:>12}", self.position_filtered)?;
        writeln!(f, "suffix filtered    {:>12}", self.suffix_filtered)?;
        writeln!(f, "verifications      {:>12}", self.verifications)?;
        writeln!(f, "verify steps       {:>12}", self.verify_steps)?;
        writeln!(f, "delta verifs       {:>12}", self.delta_verifications)?;
        writeln!(f, "results            {:>12}", self.results)?;
        writeln!(f, "postings created   {:>12}", self.postings_created)?;
        writeln!(f, "evicted            {:>12}", self.evicted)?;
        writeln!(f, "bundles created    {:>12}", self.bundles_created)?;
        write!(f, "bundle absorbed    {:>12}", self.bundle_absorbed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let mut a = JoinStats {
            probed: 1,
            results: 2,
            ..JoinStats::new()
        };
        let b = JoinStats {
            probed: 10,
            results: 20,
            bundles_created: 3,
            ..JoinStats::new()
        };
        a.merge(&b);
        assert_eq!(a.probed, 11);
        assert_eq!(a.results, 22);
        assert_eq!(a.bundles_created, 3);
    }

    #[test]
    fn ratios_handle_zero() {
        let s = JoinStats::new();
        assert_eq!(s.candidates_per_probe(), 0.0);
        assert_eq!(s.absorb_ratio(), 0.0);
    }

    #[test]
    fn ratios_compute() {
        let s = JoinStats {
            probed: 4,
            candidates: 10,
            bundles_created: 1,
            bundle_absorbed: 3,
            ..JoinStats::new()
        };
        assert!((s.candidates_per_probe() - 2.5).abs() < 1e-12);
        assert!((s.absorb_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn display_is_complete() {
        let s = JoinStats::new();
        let text = s.to_string();
        for key in ["probed", "candidates", "results", "bundle absorbed"] {
            assert!(text.contains(key), "missing {key} in display");
        }
    }
}
