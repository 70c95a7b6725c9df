//! Torture tests for the checkpoint decoder: every truncated prefix of a
//! real checkpoint, random byte flips and splices, out-of-range numbers,
//! unknown fields, deep nesting, and arbitrary strings. The invariant throughout: decoding
//! never panics and every rejection is an `MrError::Checkpoint`. Whatever
//! does decode must also get through re-encoding, validation, and (once
//! valid) the progress counts without panicking.

use pper_er::checkpoint::Checkpoint;
use pper_mapreduce::MrError;
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GOLDEN: &str = include_str!("golden/checkpoint_pubs200.json");

/// Decode `json`; a success must survive the calls a resume makes on it.
fn decode(json: &str) -> Result<Checkpoint, MrError> {
    let result = Checkpoint::from_json(json);
    match &result {
        Ok(cp) => {
            // Re-encoding works, though it need not decode again: a number
            // like `1e999` decodes to infinity, which encodes as `null`.
            let _ = cp.to_json().unwrap();
            if cp.validate(cp.machines).is_ok() {
                let _ = (
                    cp.blocks_done(),
                    cp.blocks_remaining(),
                    cp.duplicates_found(),
                );
            }
        }
        Err(MrError::Checkpoint(_)) => {}
        Err(other) => panic!("decoder failed with a non-checkpoint error: {other:?}"),
    }
    result
}

fn rejects(json: &str) {
    assert!(
        matches!(decode(json), Err(MrError::Checkpoint(_))),
        "accepted malformed input: {}",
        json.chars().take(200).collect::<String>()
    );
}

#[test]
fn every_truncated_prefix_is_rejected() {
    assert!(GOLDEN.is_ascii());
    for len in 0..GOLDEN.len() {
        rejects(&GOLDEN[..len]);
    }
    assert!(decode(GOLDEN).is_ok());
}

#[test]
fn random_byte_flips_never_panic() {
    // Bytes that matter to the grammar, plus any printable ASCII.
    const SIGNIFICANT: &[u8] = b"{}[],:\"\\-+.eE0123456789 ntf";
    let mut rng = StdRng::seed_from_u64(0xC4EC_4701);
    let mut accepted = 0;
    for _ in 0..4_000 {
        let mut bytes = GOLDEN.as_bytes().to_vec();
        for _ in 0..rng.random_range(1..4usize) {
            let at = rng.random_range(0..bytes.len());
            bytes[at] = if rng.random_range(0..2u8) == 0 {
                SIGNIFICANT[rng.random_range(0..SIGNIFICANT.len())]
            } else {
                rng.random_range(0x20..0x7fu8)
            };
        }
        let json = String::from_utf8(bytes).unwrap();
        if decode(&json).is_ok() {
            accepted += 1;
        }
    }
    // Most flips land in a number or key text and still decode; the rest
    // break the grammar. Both kinds must occur.
    assert!(
        accepted > 0 && accepted < 4_000,
        "{accepted} of 4000 accepted"
    );
}

#[test]
fn random_splices_never_panic() {
    let mut rng = StdRng::seed_from_u64(0x0059_11CE);
    for _ in 0..1_000 {
        let a = rng.random_range(0..GOLDEN.len());
        let b = rng.random_range(a..GOLDEN.len());
        let c = rng.random_range(0..GOLDEN.len());
        // Drop `a..b`, or repeat the stretch starting at `c`.
        let json = if rng.random_range(0..2u8) == 0 {
            format!("{}{}", &GOLDEN[..a], &GOLDEN[b..])
        } else {
            let end = (c + (b - a)).min(GOLDEN.len());
            format!("{}{}{}", &GOLDEN[..a], &GOLDEN[c..end], &GOLDEN[a..])
        };
        let _ = decode(&json);
    }
}

#[test]
fn out_of_range_and_mistyped_numbers_are_rejected() {
    let machines = "\"machines\":2,";
    assert!(GOLDEN.contains(machines));
    for bad in [
        "18446744073709551616",
        "99999999999999999999999",
        "-1",
        "-0",
        "2.0",
        "2e0",
        "1e999",
        "+2",
        "null",
        "\"2\"",
        "[2]",
        "",
    ] {
        rejects(&GOLDEN.replacen(machines, &format!("\"machines\":{bad},"), 1));
    }
    // Entity ids are u32.
    let pair = "[[9,137]]";
    assert!(GOLDEN.contains(pair));
    for bad in [
        "[[9,4294967296]]",
        "[[-9,137]]",
        "[[9,1.5]]",
        "[[9]]",
        "[[9,137,1]]",
    ] {
        rejects(&GOLDEN.replacen(pair, bad, 1));
    }
    // Floats must be numbers: `null` is what a non-finite float encodes
    // to, and it does not decode.
    for bad in ["null", "\"1\"", "-", "1e", "--1", "1-2", "true"] {
        rejects(&GOLDEN.replacen("\"crash_at\":600.5", &format!("\"crash_at\":{bad}"), 1));
    }
}

#[test]
fn malformed_strings_are_rejected() {
    let key = "\"key\":\"a \"";
    assert!(GOLDEN.contains(key));
    for bad in [
        "\"key\":\"a \\\"",
        "\"key\":\"a \\x\"",
        "\"key\":\"a \\u12\"",
        "\"key\":\"a \\u12g4\"",
        "\"key\":\"a \\ud800\"",
        "\"key\":\"a \\ud800\\u0041\"",
        "\"key\":\"a \\udc00\"",
        "\"key\":1",
    ] {
        rejects(&GOLDEN.replacen(key, bad, 1));
    }
    // Valid escapes decode to the same key the plain text would.
    let escaped = GOLDEN.replacen(key, "\"key\":\"\\u0061\\u0020\"", 1);
    assert_eq!(decode(&escaped).unwrap().to_json().unwrap(), GOLDEN);
}

#[test]
fn unknown_missing_repeated_and_mistyped_fields_are_rejected() {
    let machines = "\"machines\":2,";
    let deep = "[".repeat(100_000);
    for bad in [
        GOLDEN.replacen(machines, "\"machines\":2,\"extra\":0,", 1),
        GOLDEN.replacen(machines, "", 1),
        GOLDEN.replacen(machines, "\"machines\":2,\"machines\":2,", 1),
        GOLDEN.replacen("\"parent\":null,", "", 1),
        GOLDEN.replacen("\"hier_leaf\":false", "\"hier_leaf\":0", 1),
        GOLDEN.replacen("\"task_of_tree\":", &format!("\"task_of_tree\":{deep}"), 1),
        GOLDEN.replacen(machines, &format!("\"extra\":{deep},{machines}"), 1),
        format!("{GOLDEN}x"),
    ] {
        rejects(&bad);
    }
}

/// JSON-ish fragments: structural bytes, field names, literals, numbers at
/// and past the integer limits, and escape pieces.
const FRAGMENTS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    "\\",
    "\\u",
    "d800",
    "\"schedule\"",
    "\"trees\"",
    "\"tasks\"",
    "\"nodes\"",
    "\"resolved\"",
    "\"machines\"",
    "\"parent\"",
    "null",
    "true",
    "false",
    "0",
    "1",
    "-1",
    "1.5",
    "1e999",
    "18446744073709551616",
    "4294967296",
    " ",
    "\n",
    "é",
    "\u{0}",
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 2_000, ..ProptestConfig::default() })]

    #[test]
    fn arbitrary_text_never_panics(text in ".{0,64}") {
        prop_assert!(decode(&text).is_err());
    }

    #[test]
    fn arbitrary_fragment_soup_never_panics(picks in vec(0usize..FRAGMENTS.len(), 0..48)) {
        let text: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
        let _ = decode(&text);
        // The same soup spliced into a real checkpoint.
        let at = picks.first().map_or(0, |&i| i * 997 % GOLDEN.len());
        let _ = decode(&format!("{}{text}{}", &GOLDEN[..at], &GOLDEN[at..]));
    }
}
