//! Tokenizers: split raw text into token strings.
//!
//! Tokenizers are allocation-light: they hand each token to a callback as a
//! `&str` borrowing from the input (word tokenizer) or from a small reused
//! scratch buffer (q-gram tokenizer), so interning is the only place a token
//! string is ever copied.

/// Splits a document into tokens.
pub trait Tokenizer {
    /// Calls `f` once per token, in document order (duplicates included —
    /// the corpus builder deduplicates since records are *sets*).
    fn for_each_token(&self, text: &str, f: &mut dyn FnMut(&str));

    /// Convenience: collect tokens into owned strings (tests, small inputs).
    fn tokenize(&self, text: &str) -> Vec<String> {
        let mut out = Vec::new();
        self.for_each_token(text, &mut |t| out.push(t.to_owned()));
        out
    }
}

/// Splits on any non-alphanumeric character, optionally lowercasing.
///
/// This is the tokenization used for query-log / title / e-mail style
/// corpora in the set similarity join literature.
#[derive(Debug, Clone)]
pub struct WordTokenizer {
    lowercase: bool,
}

impl WordTokenizer {
    /// A word tokenizer with explicit case handling.
    pub fn new(lowercase: bool) -> Self {
        Self { lowercase }
    }
}

impl Default for WordTokenizer {
    /// Lowercasing word tokenizer.
    fn default() -> Self {
        Self { lowercase: true }
    }
}

impl Tokenizer for WordTokenizer {
    fn for_each_token(&self, text: &str, f: &mut dyn FnMut(&str)) {
        let mut lower = String::new();
        for word in text.split(|c: char| !c.is_alphanumeric()) {
            if word.is_empty() {
                continue;
            }
            if self.lowercase && word.chars().any(|c| c.is_uppercase()) {
                lower.clear();
                // `char::to_lowercase` may expand to several chars; extend
                // handles that correctly (e.g. 'İ').
                lower.extend(word.chars().flat_map(|c| c.to_lowercase()));
                f(&lower);
            } else {
                f(word);
            }
        }
    }
}

/// Character q-grams over the normalized text (whitespace collapsed to `_`).
///
/// Q-grams make edit-distance-like similarity expressible as set overlap and
/// are the standard alternative tokenization for short, typo-prone records.
#[derive(Debug, Clone)]
pub struct QGramTokenizer {
    q: usize,
}

impl QGramTokenizer {
    /// A q-gram tokenizer; `q` must be at least 1.
    pub fn new(q: usize) -> Self {
        assert!(q >= 1, "q-gram size must be >= 1");
        Self { q }
    }

    /// The configured gram size.
    pub fn q(&self) -> usize {
        self.q
    }
}

impl Tokenizer for QGramTokenizer {
    fn for_each_token(&self, text: &str, f: &mut dyn FnMut(&str)) {
        // Normalize: collapse whitespace runs to single '_', lowercase. Collect chars so grams respect UTF-8 boundaries.
        let mut chars: Vec<char> = Vec::with_capacity(text.len());
        let mut last_was_space = true; // also trims leading whitespace
        for c in text.chars() {
            if c.is_whitespace() {
                if !last_was_space {
                    chars.push('_');
                    last_was_space = true;
                }
            } else {
                chars.extend(c.to_lowercase());
                last_was_space = false;
            }
        }
        while chars.last() == Some(&'_') {
            chars.pop();
        }
        if chars.is_empty() {
            return;
        }
        if chars.len() < self.q {
            // Short strings yield a single gram of the whole string, so no
            // document tokenizes to nothing.
            let gram: String = chars.iter().collect();
            f(&gram);
            return;
        }
        let mut gram = String::with_capacity(self.q * 4);
        for window in chars.windows(self.q) {
            gram.clear();
            gram.extend(window.iter());
            f(&gram);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_tokenizer_splits_and_lowercases() {
        let t = WordTokenizer::default();
        assert_eq!(
            t.tokenize("Apache Storm, stream-processing!"),
            vec!["apache", "storm", "stream", "processing"]
        );
    }

    #[test]
    fn word_tokenizer_case_sensitive() {
        let t = WordTokenizer::new(false);
        assert_eq!(t.tokenize("Apache storm"), vec!["Apache", "storm"]);
    }

    #[test]
    fn word_tokenizer_keeps_digits() {
        let t = WordTokenizer::default();
        assert_eq!(t.tokenize("icde 2020"), vec!["icde", "2020"]);
    }

    #[test]
    fn word_tokenizer_empty_input() {
        let t = WordTokenizer::default();
        assert!(t.tokenize("").is_empty());
        assert!(t.tokenize("  ,.;  ").is_empty());
    }

    #[test]
    fn word_tokenizer_unicode_lowercase() {
        let t = WordTokenizer::default();
        assert_eq!(t.tokenize("Größe"), vec!["größe"]);
    }

    #[test]
    fn qgram_basic() {
        let t = QGramTokenizer::new(2);
        assert_eq!(t.tokenize("abc"), vec!["ab", "bc"]);
    }

    #[test]
    fn qgram_whitespace_normalization() {
        let t = QGramTokenizer::new(3);
        assert_eq!(t.tokenize(" a  b "), vec!["a_b"]);
    }

    #[test]
    fn qgram_short_string_yields_whole() {
        let t = QGramTokenizer::new(5);
        assert_eq!(t.tokenize("ab"), vec!["ab"]);
    }

    #[test]
    fn qgram_empty() {
        let t = QGramTokenizer::new(3);
        assert!(t.tokenize("   ").is_empty());
    }

    #[test]
    fn qgram_utf8_boundaries() {
        let t = QGramTokenizer::new(2);
        assert_eq!(t.tokenize("héllo"), vec!["hé", "él", "ll", "lo"]);
    }

    #[test]
    #[should_panic(expected = "q-gram size")]
    fn qgram_zero_panics() {
        let _ = QGramTokenizer::new(0);
    }
}
