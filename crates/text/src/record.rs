//! Records: sorted token sets with identity and arrival time.

use crate::token::TokenId;
use std::fmt;
use std::sync::Arc;

/// A record's unique, monotonically increasing identity.
///
/// Arrival order is encoded in the id: in a stream, `RecordId`s are assigned
/// in arrival order, so `a.id < b.id` means `a` arrived before `b`. Join
/// results always report the (earlier, later) orientation using this order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecordId(pub u64);

impl fmt::Debug for RecordId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A record: a non-empty set of tokens, stored sorted ascending by
/// [`TokenId`] (i.e. rarest token first once document-frequency ordering is
/// applied).
///
/// Records are cheap to clone: the token payload is a shared `Arc` slice,
/// which is also what lets the distributed layer "send" a record to several
/// joiners without copying token data.
#[derive(Clone, PartialEq, Eq)]
pub struct Record {
    id: RecordId,
    /// Arrival timestamp in milliseconds (stream time; 0 for batch corpora).
    timestamp: u64,
    tokens: Arc<[TokenId]>,
}

impl Record {
    /// Builds a record from already-sorted, deduplicated tokens.
    ///
    /// # Panics
    /// Panics if `tokens` is empty or not strictly ascending — use
    /// [`RecordBuilder`] for unsorted input.
    pub fn from_sorted(id: RecordId, timestamp: u64, tokens: Vec<TokenId>) -> Self {
        assert!(!tokens.is_empty(), "record {id:?} has no tokens");
        assert!(
            tokens.windows(2).all(|w| w[0] < w[1]),
            "record {id:?} tokens must be strictly ascending"
        );
        Self {
            id,
            timestamp,
            tokens: tokens.into(),
        }
    }

    /// The record's identity.
    #[inline]
    pub fn id(&self) -> RecordId {
        self.id
    }

    /// Arrival timestamp in stream milliseconds.
    #[inline]
    pub fn timestamp(&self) -> u64 {
        self.timestamp
    }

    /// The sorted token set.
    #[inline]
    pub fn tokens(&self) -> &[TokenId] {
        &self.tokens
    }

    /// Set size `|r|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Records are never empty; provided for clippy symmetry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The first `n` tokens (the record's rarest), used as filter prefixes.
    #[inline]
    pub fn prefix(&self, n: usize) -> &[TokenId] {
        &self.tokens[..n.min(self.tokens.len())]
    }

    /// Approximate wire size in bytes when shipped between workers:
    /// id + timestamp + length header + 4 bytes per token.
    ///
    /// The distributed layer meters communication with this, matching how a
    /// binary codec over the network would count.
    #[inline]
    pub fn wire_bytes(&self) -> u64 {
        8 + 8 + 4 + 4 * self.tokens.len() as u64
    }

    /// Exact set containment test (binary search; tokens are sorted).
    #[inline]
    pub fn contains(&self, token: TokenId) -> bool {
        self.tokens.binary_search(&token).is_ok()
    }
}

impl fmt::Debug for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Record")
            .field("id", &self.id)
            .field("ts", &self.timestamp)
            .field("len", &self.tokens.len())
            .finish()
    }
}

/// Builds records from unsorted, possibly-duplicated token lists.
#[derive(Debug, Default)]
pub struct RecordBuilder {
    tokens: Vec<TokenId>,
}

impl RecordBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one token occurrence.
    pub fn push(&mut self, token: TokenId) -> &mut Self {
        self.tokens.push(token);
        self
    }

    /// Adds many token occurrences.
    pub fn extend(&mut self, tokens: impl IntoIterator<Item = TokenId>) -> &mut Self {
        self.tokens.extend(tokens);
        self
    }

    /// Number of (possibly duplicate) tokens buffered.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether nothing has been buffered.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Sorts, deduplicates, and produces the record; returns `None` when no
    /// tokens were added (empty documents produce no record). The builder is
    /// left empty and can be reused.
    pub fn finish(&mut self, id: RecordId, timestamp: u64) -> Option<Record> {
        if self.tokens.is_empty() {
            return None;
        }
        self.tokens.sort_unstable();
        self.tokens.dedup();
        let tokens = std::mem::take(&mut self.tokens);
        Some(Record::from_sorted(id, timestamp, tokens))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid(xs: &[u32]) -> Vec<TokenId> {
        xs.iter().copied().map(TokenId).collect()
    }

    #[test]
    fn builder_sorts_and_dedups() {
        let mut b = RecordBuilder::new();
        b.extend(tid(&[5, 1, 3, 1, 5]));
        let r = b.finish(RecordId(1), 7).unwrap();
        assert_eq!(r.tokens(), &tid(&[1, 3, 5])[..]);
        assert_eq!(r.len(), 3);
        assert_eq!(r.timestamp(), 7);
        assert!(b.is_empty(), "builder is reusable after finish");
    }

    #[test]
    fn builder_empty_yields_none() {
        let mut b = RecordBuilder::new();
        assert!(b.finish(RecordId(1), 0).is_none());
    }

    #[test]
    fn prefix_clamps() {
        let r = Record::from_sorted(RecordId(0), 0, tid(&[1, 2, 3]));
        assert_eq!(r.prefix(2), &tid(&[1, 2])[..]);
        assert_eq!(r.prefix(10), &tid(&[1, 2, 3])[..]);
    }

    #[test]
    fn contains_uses_set_semantics() {
        let r = Record::from_sorted(RecordId(0), 0, tid(&[2, 4, 6]));
        assert!(r.contains(TokenId(4)));
        assert!(!r.contains(TokenId(5)));
    }

    #[test]
    fn wire_bytes_counts_tokens() {
        let r = Record::from_sorted(RecordId(0), 0, tid(&[1, 2, 3]));
        assert_eq!(r.wire_bytes(), 8 + 8 + 4 + 12);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn from_sorted_rejects_unsorted() {
        let _ = Record::from_sorted(RecordId(0), 0, tid(&[2, 1]));
    }

    #[test]
    #[should_panic(expected = "no tokens")]
    fn from_sorted_rejects_empty() {
        let _ = Record::from_sorted(RecordId(0), 0, vec![]);
    }
}
