//! FNV-1a digests of generated inputs and of reasoning outputs.
//!
//! Output facts are digested as a *multiset*: each fact's rendered text is
//! hashed on its own and the hashes are combined with a wrapping sum, which
//! gives the digest of the sorted outputs without paying for the sort.

use std::fmt::{self, Write};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental 64-bit FNV-1a. Implements [`fmt::Write`] so `Display` values
/// are hashed without allocating their text.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(FNV_OFFSET)
    }
}

impl Fnv {
    pub fn update(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(FNV_PRIME);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// Digest of a text, rendered as 16 hex digits.
pub fn text_digest(text: &str) -> String {
    let mut h = Fnv::default();
    h.update(text.as_bytes());
    hex(h.finish())
}

/// Order-independent digest of a collection of displayable items.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MultisetDigest {
    sum: u64,
    count: u64,
}

impl MultisetDigest {
    pub fn add(&mut self, item: &impl fmt::Display) {
        let mut h = Fnv::default();
        write!(h, "{item}").expect("hashing cannot fail");
        self.sum = self.sum.wrapping_add(h.finish());
        self.count += 1;
    }

    pub fn extend<'a, T: fmt::Display + 'a>(&mut self, items: impl IntoIterator<Item = &'a T>) {
        for item in items {
            self.add(item);
        }
    }

    pub fn of<'a, T: fmt::Display + 'a>(items: impl IntoIterator<Item = &'a T>) -> Self {
        let mut d = Self::default();
        d.extend(items);
        d
    }

    /// `<count>:<16 hex digits>`.
    pub fn render(&self) -> String {
        format!("{}:{}", self.count, hex(self.sum))
    }
}

fn hex(v: u64) -> String {
    format!("{v:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_published_vectors() {
        // FNV-1a 64 test vectors from the reference distribution.
        assert_eq!(text_digest(""), "cbf29ce484222325");
        assert_eq!(text_digest("a"), "af63dc4c8601ec8c");
        assert_eq!(text_digest("foobar"), "85944171f73967e8");
    }

    #[test]
    fn display_hashing_equals_text_hashing() {
        let mut h = Fnv::default();
        let (number, word) = (12, "x");
        write!(h, "{number}-{word}").unwrap();
        assert_eq!(hex(h.finish()), text_digest("12-x"));
    }

    #[test]
    fn multiset_digest_ignores_order_but_not_multiplicity() {
        let a = MultisetDigest::of(&["p(1)", "p(2)", "q(1)"]);
        let b = MultisetDigest::of(&["q(1)", "p(1)", "p(2)"]);
        let c = MultisetDigest::of(&["q(1)", "p(1)", "p(2)", "p(2)"]);
        assert_eq!(a, b);
        assert_eq!(a.render(), b.render());
        assert_ne!(a, c);
        assert!(a.render().starts_with("3:"));
    }
}
