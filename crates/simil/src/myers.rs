//! Myers' bit-parallel Levenshtein distance (Myers 1999 in Hyyrö's
//! formulation) for ASCII patterns: a single-word kernel for patterns of at
//! most 64 characters, and Hyyrö's blocked multi-word extension (Hyyrö 2003)
//! for longer ones.
//!
//! The pattern's character-class bitmasks live in a caller-provided table
//! that is filled before the scan and cleared afterwards by touching only
//! the pattern's own characters — so repeated calls through a reused
//! scratch table perform no heap allocation and no O(128) wipes.
//!
//! Both kernels compute the exact global edit distance (the same integer the
//! two-row DP produces), in O(⌈|pattern|/64⌉·|text|) word operations instead
//! of O(|pattern|·|text|) cell updates.

/// Populate the character-class table for `pattern` (ASCII, length
/// `1..=64`). `peq` must be all-zero on entry; undo with
/// [`myers_clear_peq`] on the same pattern. Splitting fill/scan/clear lets
/// the batch path build one probe's table once and scan a whole block of
/// candidates against it.
pub(crate) fn myers_fill_peq(pattern: &[char], peq: &mut [u64; 128]) {
    let m = pattern.len();
    debug_assert!((1..=64).contains(&m), "pattern length {m} out of range");
    for (i, &c) in pattern.iter().enumerate() {
        debug_assert!(c.is_ascii());
        peq[c as usize] |= 1u64 << i;
    }
}

/// Zero the table entries [`myers_fill_peq`] touched, restoring `peq` to
/// all-zero by visiting only the pattern's own characters.
pub(crate) fn myers_clear_peq(pattern: &[char], peq: &mut [u64; 128]) {
    for &c in pattern {
        peq[c as usize] = 0;
    }
}

/// The Myers scan against a prebuilt table: exact Levenshtein distance
/// between the pattern `peq` was filled from (of length `pattern_len`) and
/// `text`. Does not modify the table, so one fill can serve many scans.
pub(crate) fn myers_scan_prebuilt(pattern_len: usize, text: &[char], peq: &[u64; 128]) -> usize {
    let m = pattern_len;
    debug_assert!((1..=64).contains(&m), "pattern length {m} out of range");
    let mut pv = !0u64; // vertical positive deltas (column 0: D[i][0] = i)
    let mut mv = 0u64; // vertical negative deltas
    let mut score = m;
    let hibit = 1u64 << (m - 1);
    for &c in text {
        let eq = if c.is_ascii() { peq[c as usize] } else { 0 };
        let (ph, mh) = advance_block(&mut pv, &mut mv, eq, 1, 0);
        if ph & hibit != 0 {
            score += 1;
        } else if mh & hibit != 0 {
            score -= 1;
        }
    }
    score
}

/// Exact Levenshtein distance between `pattern` and `text`, both ASCII,
/// with `1 <= pattern.len() <= 64`. `peq` is the reusable character-class
/// table; it must be all-zero on entry and is restored to all-zero before
/// returning.
pub(crate) fn myers_distance_ascii(pattern: &[char], text: &[char], peq: &mut [u64; 128]) -> usize {
    myers_fill_peq(pattern, peq);
    let score = myers_scan_prebuilt(pattern.len(), text, peq);
    myers_clear_peq(pattern, peq);
    score
}

/// One 64-row block of one text column of the Myers recurrence (edlib's
/// `calculateBlock`). `pv`/`mv` are the block's vertical deltas, updated in
/// place; `hin_p`/`hin_m` are 1 when the horizontal delta entering the
/// block's top row is +1/−1. Returns the block's horizontal deltas before
/// the shift: bit `i` of the first/second word is set when row `i`'s delta
/// is +1/−1, so the top bits are the delta carried into the next block.
#[inline(always)]
fn advance_block(pv: &mut u64, mv: &mut u64, eq: u64, hin_p: u64, hin_m: u64) -> (u64, u64) {
    let xv = eq | *mv;
    // A −1 entering the block acts like a match in its top row.
    let eq = eq | hin_m;
    let xh = (((eq & *pv).wrapping_add(*pv)) ^ *pv) | eq;
    let ph = *mv | !(xh | *pv);
    let mh = *pv & xh;
    let ph_in = (ph << 1) | hin_p;
    let mh_in = (mh << 1) | hin_m;
    *pv = mh_in | !(xv | ph_in);
    *mv = ph_in & xv;
    (ph, mh)
}

/// Reusable buffers for the blocked kernel: the flat character-class table
/// (`128` rows of `blocks` words, row `c` holding character `c`'s bitmask
/// over the pattern) and the per-block vertical delta vectors. The table is
/// all-zero between calls; buffers only grow, so a warm scratch makes
/// [`MyersBlocks::distance`] allocation-free.
#[derive(Debug, Default)]
pub(crate) struct MyersBlocks {
    peq: Vec<u64>,
    pv: Vec<u64>,
    mv: Vec<u64>,
}

impl MyersBlocks {
    /// Exact Levenshtein distance between `pattern` and `text`, both ASCII,
    /// with `pattern` non-empty and of any length: ⌈|pattern|/64⌉ words per
    /// text character, the horizontal delta carried from block to block,
    /// and the score read at the pattern's last row.
    pub(crate) fn distance(&mut self, pattern: &[char], text: &[char]) -> usize {
        let m = pattern.len();
        debug_assert!(m >= 1, "empty pattern");
        let blocks = m.div_ceil(64);
        if self.peq.len() < 128 * blocks {
            self.peq.resize(128 * blocks, 0);
        }
        for (i, &c) in pattern.iter().enumerate() {
            debug_assert!(c.is_ascii());
            self.peq[c as usize * blocks + i / 64] |= 1u64 << (i % 64);
        }
        self.pv.clear();
        self.pv.resize(blocks, !0u64); // column 0: D[i][0] = i
        self.mv.clear();
        self.mv.resize(blocks, 0);

        let mut score = m;
        let hibit = 1u64 << ((m - 1) % 64);
        for &c in text {
            debug_assert!(c.is_ascii());
            let row = &self.peq[c as usize * blocks..][..blocks];
            // Row 0 is D[0][j] = j: the top block's input delta is +1.
            let (mut hin_p, mut hin_m) = (1u64, 0u64);
            let (mut ph, mut mh) = (0u64, 0u64);
            for ((pv, mv), &eq) in self.pv.iter_mut().zip(self.mv.iter_mut()).zip(row) {
                (ph, mh) = advance_block(pv, mv, eq, hin_p, hin_m);
                hin_p = ph >> 63;
                hin_m = mh >> 63;
            }
            // Bits above the last row only feed higher bits (carries and
            // shifts move upwards), so the last block needs no padding.
            if ph & hibit != 0 {
                score += 1;
            } else if mh & hibit != 0 {
                score -= 1;
            }
        }

        for &c in pattern {
            self.peq[c as usize * blocks..][..blocks].fill(0);
        }
        score
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::levenshtein::{levenshtein, levenshtein_chars};
    use proptest::prelude::*;

    fn myers(a: &str, b: &str) -> usize {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        let mut peq = [0u64; 128];
        let d = myers_distance_ascii(&a, &b, &mut peq);
        assert!(peq.iter().all(|&x| x == 0), "peq must be cleared");
        d
    }

    /// Blocked distance through `scratch`, checked against the two-row DP,
    /// with the flat table asserted all-zero afterwards.
    fn assert_blocked(scratch: &mut MyersBlocks, pattern: &str, text: &str) {
        let p: Vec<char> = pattern.chars().collect();
        let t: Vec<char> = text.chars().collect();
        let d = scratch.distance(&p, &t);
        assert!(
            scratch.peq.iter().all(|&x| x == 0),
            "flat table must be cleared"
        );
        assert_eq!(
            d,
            levenshtein_chars(&p, &t),
            "pattern len {} text len {}",
            p.len(),
            t.len()
        );
    }

    /// Deterministic pseudo-random ASCII string of `len` chars drawn from
    /// `alphabet`.
    fn lcg_string(len: usize, seed: u64, alphabet: &[u8]) -> String {
        const MUL: u64 = 6364136223846793005;
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(MUL).wrapping_add(1);
                alphabet[(x >> 33) as usize % alphabet.len()] as char
            })
            .collect()
    }

    #[test]
    fn blocked_word_boundaries() {
        // One scratch across every case: block counts grow and shrink, so
        // a stale table entry from a longer pattern would show up here.
        let mut scratch = MyersBlocks::default();
        for len in [63, 64, 65, 127, 128, 129, 350] {
            for (seed, alphabet) in [(1, &b"acgt"[..]), (2, b"abcdefghij klmnopqrstuvwxyz.,")] {
                let pattern = lcg_string(len, seed * 1000 + len as u64, alphabet);
                let other = lcg_string(len + 40, seed * 7 + len as u64, alphabet);
                let mut typo = pattern.clone().into_bytes();
                typo[len / 2] = b'#';
                typo.remove(len / 3);
                let typo = String::from_utf8(typo).unwrap();
                for text in [
                    String::new(),
                    pattern[..len / 2].to_string(),
                    pattern[..len - 1].to_string(),
                    pattern.clone(),
                    typo,
                    format!("{pattern}x"),
                    other.clone(),
                    other[..len / 3].to_string(),
                ] {
                    assert_blocked(&mut scratch, &pattern, &text);
                }
            }
            let same = "z".repeat(len);
            assert_blocked(&mut scratch, &same, &same);
            assert_blocked(&mut scratch, &same, "");
            assert_blocked(&mut scratch, &same, &"y".repeat(len));
        }
    }

    #[test]
    fn agrees_with_dp_on_known_cases() {
        for (a, b) in [
            ("kitten", "sitting"),
            ("flaw", "lawn"),
            ("a", ""),
            ("same", "same"),
            ("abc", "xyzabcxyz"),
        ] {
            assert_eq!(myers(a, b), levenshtein(a, b), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn full_64_char_pattern() {
        let a = "x".repeat(64);
        let mut b = "x".repeat(63);
        b.push('y');
        assert_eq!(myers(&a, &b), 1);
        assert_eq!(myers(&a, &a), 0);
        assert_eq!(myers(&a, ""), 64);
    }

    proptest! {
        #[test]
        fn prop_matches_two_row_dp(a in "[a-e]{1,64}", b in "[a-e]{0,90}") {
            prop_assert_eq!(myers(&a, &b), levenshtein(&a, &b));
        }

        #[test]
        fn prop_matches_dp_dense_alphabet(a in "[a-zA-Z0-9 .,']{1,40}", b in "[a-zA-Z0-9 .,']{0,60}") {
            prop_assert_eq!(myers(&a, &b), levenshtein(&a, &b));
        }

        #[test]
        fn prop_blocked_matches_dp(a in "[a-d]{1,400}", b in "[a-d]{0,420}") {
            let mut scratch = MyersBlocks::default();
            assert_blocked(&mut scratch, &a, &b);
            // A text sharing the pattern's first half: small distances.
            assert_blocked(&mut scratch, &a, &format!("{}{b}", &a[..a.len() / 2]));
        }

        #[test]
        fn prop_blocked_matches_dp_dense_alphabet(
            a in "[ -~]{1,400}",
            b in "[ -~]{0,420}",
        ) {
            assert_blocked(&mut MyersBlocks::default(), &a, &b);
        }
    }
}
