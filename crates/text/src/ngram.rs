//! Hashed word and character n-gram features (fastText-style).
//!
//! The from-scratch encoder cannot afford a learned sub-word vocabulary, so
//! queries are represented as a sparse bag of hashed features: every word
//! token, every word bigram, and every character n-gram (within word
//! boundaries, including boundary markers) is hashed into a fixed-size bucket
//! space. The encoder then averages the embedding rows selected by those
//! bucket indices. Character n-grams give paraphrase robustness ("color" vs
//! "colour" share most trigrams), while word bigrams retain some word-order
//! signal that plain bags of words lose.

use serde::{Deserialize, Serialize};

/// Sparse hashed representation of a query: bucket indices with counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct HashedFeatures {
    /// Feature bucket indices (sorted, unique).
    pub indices: Vec<u32>,
    /// Per-index weights (occurrence counts, later normalised by the encoder).
    pub weights: Vec<f32>,
}

impl HashedFeatures {
    /// Number of distinct active buckets.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// `true` when the query produced no features (e.g. empty string).
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Sum of the feature weights.
    pub fn total_weight(&self) -> f32 {
        self.weights.iter().sum()
    }
}

/// Deterministic feature hasher mapping token streams to bucket indices.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct FeatureHasher {
    /// Number of hash buckets (the encoder's embedding-table height).
    pub buckets: u32,
    /// Minimum character n-gram length (inclusive).
    pub min_char_ngram: usize,
    /// Maximum character n-gram length (inclusive).
    pub max_char_ngram: usize,
    /// Also hash word unigrams and bigrams (default `true`).
    pub word_ngrams: bool,
}

impl FeatureHasher {
    /// Creates a hasher with `buckets` buckets and character n-grams in
    /// `[min_char_ngram, max_char_ngram]`.
    pub fn new(buckets: u32, min_char_ngram: usize, max_char_ngram: usize) -> Self {
        Self {
            buckets: buckets.max(1),
            min_char_ngram: min_char_ngram.max(1),
            max_char_ngram: max_char_ngram.max(min_char_ngram.max(1)),
            word_ngrams: true,
        }
    }

    /// FNV-1a hash of the concatenation of `parts`, mapped into the bucket
    /// space. Taking the pieces separately lets a caller hash a word bigram
    /// or a marked character window without first joining it into a buffer.
    fn bucket(&self, namespace: u8, parts: &[&[u8]]) -> u32 {
        const FNV_OFFSET: u64 = 0xcbf29ce484222325;
        const FNV_PRIME: u64 = 0x100000001b3;
        let mut h = FNV_OFFSET ^ (namespace as u64).wrapping_mul(0x9E3779B97F4A7C15);
        for part in parts {
            for &b in *part {
                h ^= b as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
        }
        (h % self.buckets as u64) as u32
    }

    /// Computes hashed features for a pre-tokenised query.
    ///
    /// Every feature is hashed straight from the token bytes: a word
    /// bigram is the first word, a space and the second word; a character
    /// n-gram is a window of whole characters of `<token>`, the token with
    /// boundary markers. The bucket of every occurrence goes into one
    /// `Vec`, which is sorted and run-length counted.
    pub fn features(&self, tokens: &[String]) -> HashedFeatures {
        let mut hits: Vec<u32> = Vec::new();
        if self.word_ngrams {
            for token in tokens {
                hits.push(self.bucket(1, &[token.as_bytes()]));
            }
            for pair in tokens.windows(2) {
                hits.push(self.bucket(2, &[pair[0].as_bytes(), b" ", pair[1].as_bytes()]));
            }
        }

        // Reused across tokens: the marked token's bytes, and the byte
        // offset at which each of its characters starts plus its end.
        let mut marked: Vec<u8> = Vec::new();
        let mut starts: Vec<usize> = Vec::new();
        for token in tokens {
            // Boundary markers let the hasher distinguish prefixes/suffixes.
            marked.clear();
            marked.push(b'<');
            marked.extend_from_slice(token.as_bytes());
            marked.push(b'>');
            starts.clear();
            starts.push(0);
            starts.extend(token.char_indices().map(|(i, _)| i + 1));
            starts.extend([marked.len() - 1, marked.len()]);
            let chars = starts.len() - 1;
            for n in self.min_char_ngram..=self.max_char_ngram.min(chars) {
                for window in starts.windows(n + 1) {
                    hits.push(self.bucket(3, &[&marked[window[0]..window[n]]]));
                }
            }
        }

        hits.sort_unstable();
        let mut indices = Vec::new();
        let mut weights = Vec::new();
        for run in hits.chunk_by(|a, b| a == b) {
            indices.push(run[0]);
            weights.push(run.len() as f32);
        }
        HashedFeatures { indices, weights }
    }

    /// Convenience: tokenizes with the provided tokenizer and hashes.
    pub fn features_of(&self, tokenizer: &crate::Tokenizer, text: &str) -> HashedFeatures {
        self.features(&tokenizer.tokenize(text))
    }
}

impl Default for FeatureHasher {
    fn default() -> Self {
        Self::new(1 << 14, 3, 5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tokenizer;
    use proptest::prelude::*;

    fn hasher() -> FeatureHasher {
        FeatureHasher::new(1 << 12, 3, 4)
    }

    /// The straightforward hasher [`FeatureHasher::features`] must match:
    /// it builds every n-gram as a `String` and counts through a
    /// `BTreeMap`.
    fn features_reference(h: &FeatureHasher, tokens: &[String]) -> HashedFeatures {
        use std::collections::BTreeMap;
        let bucket = |namespace: u8, bytes: &[u8]| -> u32 {
            let mut x = 0xcbf29ce484222325u64 ^ (namespace as u64).wrapping_mul(0x9E3779B97F4A7C15);
            for &b in bytes {
                x ^= b as u64;
                x = x.wrapping_mul(0x100000001b3);
            }
            (x % h.buckets as u64) as u32
        };
        let mut counts: BTreeMap<u32, f32> = BTreeMap::new();
        let mut bump = |idx: u32| {
            *counts.entry(idx).or_insert(0.0) += 1.0;
        };
        if h.word_ngrams {
            for token in tokens {
                bump(bucket(1, token.as_bytes()));
            }
            for pair in tokens.windows(2) {
                let joined = format!("{} {}", pair[0], pair[1]);
                bump(bucket(2, joined.as_bytes()));
            }
        }
        for token in tokens {
            let marked: Vec<char> = std::iter::once('<')
                .chain(token.chars())
                .chain(std::iter::once('>'))
                .collect();
            for n in h.min_char_ngram..=h.max_char_ngram {
                if marked.len() < n {
                    continue;
                }
                for window in marked.windows(n) {
                    let gram: String = window.iter().collect();
                    bump(bucket(3, gram.as_bytes()));
                }
            }
        }
        HashedFeatures {
            indices: counts.keys().copied().collect(),
            weights: counts.values().copied().collect(),
        }
    }

    /// Characters of one to four UTF-8 bytes, the markers themselves, a
    /// space and an apostrophe, so windows cut across every width.
    const ALPHABET: [char; 12] = [
        'a', 'b', 'e', 'z', '7', '\'', ' ', '<', 'é', 'ß', '中', '😀',
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn features_match_the_reference_hasher(
            words in prop::collection::vec(prop::collection::vec(0usize..ALPHABET.len(), 0..9), 0..7),
            buckets in 1u32..5000,
            min_n in 1usize..6,
            extra_n in 0usize..4,
            word_ngrams in prop::bool::ANY,
        ) {
            let tokens: Vec<String> = words
                .iter()
                .map(|w| w.iter().map(|&c| ALPHABET[c]).collect())
                .collect();
            let mut h = FeatureHasher::new(buckets, min_n, min_n + extra_n);
            h.word_ngrams = word_ngrams;
            prop_assert_eq!(h.features(&tokens), features_reference(&h, &tokens), "{:?}", tokens);
        }
    }

    #[test]
    fn features_match_the_reference_hasher_on_real_queries() {
        let tok = Tokenizer::default();
        for h in [
            hasher(),
            FeatureHasher::default(),
            FeatureHasher::new(512, 3, 5),
        ] {
            for text in [
                "How can I increase the battery-life of my Smartphone?",
                "write a recursive fibonacci function in rust",
                "hi",
                "",
                "Crème brûlée recipe für 中文 users 😀",
            ] {
                let tokens = tok.tokenize(text);
                assert_eq!(
                    h.features(&tokens),
                    features_reference(&h, &tokens),
                    "{text}"
                );
            }
        }
    }

    #[test]
    fn features_are_deterministic() {
        let tok = Tokenizer::default();
        let h = hasher();
        let a = h.features_of(&tok, "Plot a line graph in Python");
        let b = h.features_of(&tok, "Plot a line graph in Python");
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn indices_are_sorted_unique_and_in_range() {
        let tok = Tokenizer::default();
        let h = hasher();
        let f = h.features_of(&tok, "how to extend smartphone battery life quickly");
        for w in f.indices.windows(2) {
            assert!(w[0] < w[1], "indices must be strictly increasing");
        }
        assert!(f.indices.iter().all(|&i| i < h.buckets));
        assert_eq!(f.indices.len(), f.weights.len());
        assert!(f.total_weight() >= f.len() as f32);
    }

    #[test]
    fn similar_strings_share_more_buckets_than_dissimilar_ones() {
        let tok = Tokenizer::default();
        let h = hasher();
        let a = h.features_of(&tok, "how can I increase the battery life of my smartphone");
        let b = h.features_of(&tok, "tips for extending my phone battery duration");
        let c = h.features_of(&tok, "write a recursive fibonacci function in rust");
        let overlap = |x: &HashedFeatures, y: &HashedFeatures| -> usize {
            let set: std::collections::HashSet<u32> = x.indices.iter().copied().collect();
            y.indices.iter().filter(|i| set.contains(i)).count()
        };
        assert!(
            overlap(&a, &b) > overlap(&a, &c),
            "paraphrase must share more hashed features than an unrelated query"
        );
    }

    #[test]
    fn empty_input_has_no_features() {
        let tok = Tokenizer::default();
        let h = hasher();
        assert!(h.features_of(&tok, "").is_empty());
        assert_eq!(h.features(&[]).len(), 0);
    }

    #[test]
    fn word_ngrams_can_be_disabled() {
        let mut h = hasher();
        h.word_ngrams = false;
        let tok = Tokenizer::default();
        let with_words = hasher().features_of(&tok, "draw a circle");
        let chars_only = h.features_of(&tok, "draw a circle");
        assert!(chars_only.len() < with_words.len());
        assert!(!chars_only.is_empty());
    }

    #[test]
    fn bucket_space_is_respected_even_for_tiny_tables() {
        let tok = Tokenizer::default();
        let h = FeatureHasher::new(7, 3, 4);
        let f = h.features_of(&tok, "some reasonably long query to fill buckets");
        assert!(f.indices.iter().all(|&i| i < 7));
    }

    #[test]
    fn short_tokens_still_produce_character_grams() {
        let tok = Tokenizer::default();
        let h = FeatureHasher::new(1024, 3, 5);
        // "hi" is shorter than min n-gram 3 but boundary markers make "<hi>".
        let f = h.features_of(&tok, "hi");
        assert!(!f.is_empty());
    }
}
