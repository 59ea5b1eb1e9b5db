//! Tokenization.
//!
//! Plays the role Lucene's analyzer plays in the paper's system: text is
//! lowercased and split on non-alphanumeric characters.  No stemming and no
//! stop-word removal — the paper's frequency sweeps control list lengths
//! explicitly, so the tokenizer stays deterministic and transparent.

/// Maximum length of a token kept by the tokenizer; longer runs are split.
/// Guards pathological inputs (e.g. base64 blobs inside text).
pub const MAX_TOKEN_LEN: usize = 64;

/// Iterates over the tokens of `text`: maximal runs of alphanumeric
/// characters, lowercased.
///
/// ```
/// let toks: Vec<String> = xtk_index::text::tokenize("Top-K  Keyword  Search, 2010!").collect();
/// assert_eq!(toks, ["top", "k", "keyword", "search", "2010"]);
/// ```
pub fn tokenize(text: &str) -> Tokenizer<'_> {
    Tokenizer { rest: text }
}

/// Iterator returned by [`tokenize`].
pub struct Tokenizer<'a> {
    rest: &'a str,
}

impl<'a> Tokenizer<'a> {
    /// The next token as it appears in the text (not lowercased).
    fn next_raw(&mut self) -> Option<&'a str> {
        // Skip separators.
        let start = self.rest.find(|c: char| c.is_alphanumeric())?;
        self.rest = &self.rest[start..];
        let end = self
            .rest
            .find(|c: char| !c.is_alphanumeric())
            .unwrap_or(self.rest.len());
        let mut end = end.min(MAX_TOKEN_LEN);
        // Don't split inside a multi-byte character when clamping.
        while !self.rest.is_char_boundary(end) {
            end -= 1;
        }
        let (tok, rest) = self.rest.split_at(end.max(1));
        self.rest = rest;
        Some(tok)
    }

    /// The next token lowercased into `buf` (its previous contents
    /// replaced) — the same string [`Iterator::next`] returns, without
    /// allocating one per token: ASCII tokens are lowercased in place,
    /// any other token goes through `str::to_lowercase`, whose
    /// context-dependent mappings (a word-final `Σ` becomes `ς`, `İ`
    /// becomes two chars) a per-char lowercase would get wrong.
    pub fn next_into<'b>(&mut self, buf: &'b mut String) -> Option<&'b str> {
        let tok = self.next_raw()?;
        buf.clear();
        if tok.is_ascii() {
            buf.push_str(tok);
            buf.make_ascii_lowercase();
        } else {
            buf.push_str(&tok.to_lowercase());
        }
        Some(buf)
    }
}

impl Iterator for Tokenizer<'_> {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.next_raw().map(str::to_lowercase)
    }
}

/// Tokenizes and returns distinct tokens with their term frequencies,
/// in first-occurrence order.
pub fn token_counts(text: &str) -> Vec<(String, u32)> {
    let mut out: Vec<(String, u32)> = Vec::new();
    'outer: for tok in tokenize(text) {
        for (t, c) in out.iter_mut() {
            if *t == tok {
                *c += 1;
                continue 'outer;
            }
        }
        out.push((tok, 1));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_punctuation_and_lowercases() {
        let toks: Vec<String> = tokenize("XML/Keyword-Search (ICDE'10)").collect();
        assert_eq!(toks, ["xml", "keyword", "search", "icde", "10"]);
    }

    #[test]
    fn empty_and_separator_only() {
        assert_eq!(tokenize("").count(), 0);
        assert_eq!(tokenize("  ,.;!  ").count(), 0);
    }

    #[test]
    fn numbers_are_tokens() {
        let toks: Vec<String> = tokenize("year 2010 vol.35").collect();
        assert_eq!(toks, ["year", "2010", "vol", "35"]);
    }

    #[test]
    fn unicode_tokens() {
        let toks: Vec<String> = tokenize("Müller's Données").collect();
        assert_eq!(toks, ["müller", "s", "données"]);
    }

    #[test]
    fn very_long_runs_are_split() {
        let long = "a".repeat(200);
        let toks: Vec<String> = tokenize(&long).collect();
        assert!(toks.iter().all(|t| t.len() <= MAX_TOKEN_LEN));
        assert_eq!(toks.concat().len(), 200);
    }

    #[test]
    fn token_counts_aggregate() {
        let tc = token_counts("xml data xml XML keyword");
        assert_eq!(tc, vec![("xml".into(), 3), ("data".into(), 1), ("keyword".into(), 1)]);
    }
}
