//! Levenshtein edit distance: classic two-row DP plus a banded variant with
//! an early-exit bound (pairs whose distance exceeds the bound are rejected
//! without filling the whole matrix). The banded variant is public API used
//! by tests and benches only; the prepared resolve path runs Myers'
//! bit-parallel kernels on ASCII input and this module's two-row DP
//! otherwise.

/// Unbounded Levenshtein distance between `a` and `b` (Unicode scalar
/// values, two-row dynamic program, O(|a|·|b|) time, O(min) space).
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    levenshtein_chars(&a, &b)
}

pub(crate) fn levenshtein_chars(a: &[char], b: &[char]) -> usize {
    let mut row = Vec::new();
    levenshtein_chars_scratch(a, b, &mut row)
}

/// Two-row DP over pre-collected char slices, reusing `row` as the DP
/// buffer (the prepared hot path calls this with a per-task scratch so a
/// pair comparison performs no heap allocation).
pub(crate) fn levenshtein_chars_scratch(a: &[char], b: &[char], row: &mut Vec<usize>) -> usize {
    // Keep the shorter string in the inner dimension for less memory.
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return long.len();
    }
    row.clear();
    row.extend(0..=short.len());
    for (i, &lc) in long.iter().enumerate() {
        let mut prev_diag = row[0];
        row[0] = i + 1;
        for (j, &sc) in short.iter().enumerate() {
            let cost = usize::from(lc != sc);
            let val = (prev_diag + cost).min(row[j] + 1).min(row[j + 1] + 1);
            prev_diag = row[j + 1];
            row[j + 1] = val;
        }
    }
    row[short.len()]
}

/// Levenshtein distance with an inclusive upper bound: returns
/// `Some(distance)` if `distance <= bound`, else `None`, spending only
/// O(bound · min(|a|,|b|)) time by confining the DP to a diagonal band.
pub fn levenshtein_bounded(a: &str, b: &str, bound: usize) -> Option<usize> {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let (short, long) = if a.len() <= b.len() {
        (&a, &b)
    } else {
        (&b, &a)
    };
    if long.len() - short.len() > bound {
        return None;
    }
    if short.is_empty() {
        return Some(long.len());
    }
    let n = short.len();
    const INF: usize = usize::MAX / 2;
    let mut row = vec![INF; n + 1];
    for (j, slot) in row.iter_mut().enumerate().take(bound.min(n) + 1) {
        *slot = j;
    }
    for (i, &lc) in long.iter().enumerate() {
        let lo = (i + 1).saturating_sub(bound).max(1);
        let hi = (i + 1 + bound).min(n);
        if lo > hi {
            return None;
        }
        let mut prev_diag = row[lo - 1];
        row[lo - 1] = if i < bound { i + 1 } else { INF };
        let mut best = row[lo - 1];
        for j in lo..=hi {
            let cost = usize::from(lc != short[j - 1]);
            let val = (prev_diag + cost)
                .min(row[j - 1] + 1)
                .min(row[j].saturating_add(1));
            prev_diag = row[j];
            row[j] = val;
            best = best.min(val);
        }
        if hi < n {
            row[hi + 1] = INF; // cells right of the band are unreachable
        }
        if best > bound {
            return None;
        }
    }
    let d = row[n];
    (d <= bound).then_some(d)
}

/// Normalized Levenshtein similarity: `1 - distance / max(len)`, in `[0,1]`.
/// Two empty strings are identical (similarity 1).
pub fn levenshtein_similarity(a: &str, b: &str) -> f64 {
    // Collect each string once; the char buffers provide both the length
    // normalizer and the DP input.
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let max_len = a.len().max(b.len());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein_chars(&a, &b) as f64 / max_len as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_distances() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("same", "same"), 0);
    }

    #[test]
    fn unicode_counts_scalars_not_bytes() {
        assert_eq!(levenshtein("café", "cafe"), 1);
        assert_eq!(levenshtein("αβγ", "αβδ"), 1);
    }

    #[test]
    fn bounded_agrees_when_within_bound() {
        let cases = [("kitten", "sitting"), ("charles", "gharles"), ("a", "b")];
        for (a, b) in cases {
            let full = levenshtein(a, b);
            assert_eq!(levenshtein_bounded(a, b, full), Some(full));
            assert_eq!(levenshtein_bounded(a, b, full + 3), Some(full));
            if full > 0 {
                assert_eq!(levenshtein_bounded(a, b, full - 1), None);
            }
        }
    }

    #[test]
    fn bounded_rejects_on_length_gap() {
        assert_eq!(levenshtein_bounded("ab", "abcdefgh", 3), None);
    }

    #[test]
    fn bounded_zero_bound() {
        assert_eq!(levenshtein_bounded("abc", "abc", 0), Some(0));
        assert_eq!(levenshtein_bounded("abc", "abd", 0), None);
    }

    #[test]
    fn similarity_range_and_extremes() {
        assert_eq!(levenshtein_similarity("", ""), 1.0);
        assert_eq!(levenshtein_similarity("x", "x"), 1.0);
        assert_eq!(levenshtein_similarity("abc", "xyz"), 0.0);
        let s = levenshtein_similarity("john lopez", "john lopes");
        assert!(s > 0.8 && s < 1.0);
    }

    proptest! {
        #[test]
        fn prop_symmetric(a in ".{0,24}", b in ".{0,24}") {
            prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        }

        #[test]
        fn prop_identity(a in ".{0,24}") {
            prop_assert_eq!(levenshtein(&a, &a), 0);
        }

        #[test]
        fn prop_triangle_inequality(a in "[a-e]{0,10}", b in "[a-e]{0,10}", c in "[a-e]{0,10}") {
            let ab = levenshtein(&a, &b);
            let bc = levenshtein(&b, &c);
            let ac = levenshtein(&a, &c);
            prop_assert!(ac <= ab + bc);
        }

        #[test]
        fn prop_bounded_matches_full(a in "[a-d]{0,14}", b in "[a-d]{0,14}", bound in 0usize..8) {
            let full = levenshtein(&a, &b);
            let got = levenshtein_bounded(&a, &b, bound);
            if full <= bound {
                prop_assert_eq!(got, Some(full));
            } else {
                prop_assert_eq!(got, None);
            }
        }

        #[test]
        fn prop_similarity_in_unit_interval(a in ".{0,20}", b in ".{0,20}") {
            let s = levenshtein_similarity(&a, &b);
            prop_assert!((0.0..=1.0).contains(&s));
        }

        #[test]
        fn prop_distance_bounded_by_longer_len(a in "[a-z]{0,16}", b in "[a-z]{0,16}") {
            let d = levenshtein(&a, &b);
            prop_assert!(d <= a.len().max(b.len()));
            prop_assert!(d >= a.len().abs_diff(b.len()));
        }
    }
}
