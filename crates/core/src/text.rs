//! Small text utilities shared by wrangling stages.

use std::borrow::Cow;

/// Splits an identifier into lowercase word tokens at `_`, `-`, `.`, spaces,
/// digit/letter boundaries and camelCase humps.
///
/// `"airTemp2Max"` → `["air", "temp", "2", "max"]`.
pub fn split_identifier(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut prev: Option<char> = None;
    for c in s.chars() {
        let boundary = match (prev, c) {
            (_, '_' | '-' | '.' | ' ' | '/' | ':') => {
                if !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
                prev = Some(c);
                continue;
            }
            (Some(p), c) if p.is_ascii_lowercase() && c.is_ascii_uppercase() => true,
            (Some(p), c) if p.is_ascii_alphabetic() && c.is_ascii_digit() => true,
            (Some(p), c) if p.is_ascii_digit() && c.is_ascii_alphabetic() => true,
            _ => false,
        };
        if boundary && !cur.is_empty() {
            out.push(std::mem::take(&mut cur));
        }
        cur.extend(c.to_lowercase());
        prev = Some(c);
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// ASCII-lowercases and trims a term for case-insensitive matching.
pub fn normalize_term(s: &str) -> String {
    s.trim().to_ascii_lowercase()
}

/// [`normalize_term`] of `s`, borrowed when `s` is already normalized:
/// the lookup key of an index keyed by normalized terms, found with no
/// allocation for a caller that holds normalized names.
pub fn term_key(s: &str) -> Cow<'_, str> {
    if s.trim().len() == s.len() && !s.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Borrowed(s)
    } else {
        Cow::Owned(normalize_term(s))
    }
}

/// True when two terms are equal after [`normalize_term`].
pub fn term_eq(a: &str, b: &str) -> bool {
    a.trim().eq_ignore_ascii_case(b.trim())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_snake() {
        assert_eq!(split_identifier("air_temperature"), vec!["air", "temperature"]);
    }

    #[test]
    fn split_camel() {
        assert_eq!(split_identifier("airTemp2Max"), vec!["air", "temp", "2", "max"]);
    }

    #[test]
    fn split_mixed_separators() {
        assert_eq!(split_identifier("water-temp.qc v2"), vec!["water", "temp", "qc", "v", "2"]);
    }

    #[test]
    fn split_empty_and_separator_only() {
        assert!(split_identifier("").is_empty());
        assert!(split_identifier("___").is_empty());
    }

    #[test]
    fn split_uppercase_run() {
        assert_eq!(split_identifier("MWHLA"), vec!["mwhla"]);
    }

    #[test]
    fn normalize_and_eq() {
        assert_eq!(normalize_term("  DegC "), "degc");
        assert!(term_eq("AirTemp", "airtemp"));
        assert!(!term_eq("air", "water"));
    }

    #[test]
    fn term_key_borrows_only_a_normalized_term() {
        for s in ["air_temperature", "", "a b", "temp2"] {
            assert!(matches!(term_key(s), Cow::Borrowed(k) if k == s), "{s:?}");
        }
        for s in [" DegC", "AirTemp", "sal\t", "\u{a0}x"] {
            assert!(matches!(term_key(s), Cow::Owned(ref k) if *k == normalize_term(s)), "{s:?}");
        }
    }
}
