//! Proof of the tentpole's zero-allocation contract: once entities are
//! prepared and the scratch buffers are warm, `PreparedRule::score` and
//! `PreparedRule::matches` perform **no heap allocation per pair**.
//!
//! A counting `#[global_allocator]` wraps the system allocator; the test
//! warms the scratch to its high-water mark, snapshots the allocation
//! counter, runs thousands of pair comparisons, and asserts the counter
//! never moved. (This file is its own integration-test binary because a
//! global allocator is process-wide.) The counter is per thread, so tests
//! running side by side on the harness's threads do not see each other's
//! allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pper_simil::{AttributeSim, MatchRule, PreparedRule, SimScratch, TokenInterner, WeightedAttr};

/// System allocator wrapper counting every allocation and reallocation
/// made by the calling thread.
struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so reading it never
    // allocates and works at any point of a thread's life.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations the calling thread has made so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A rule exercising every kernel at once, with Levenshtein on a title
/// (single-word Myers) and on a 200–350-char abstract (blocked Myers).
fn six_kernel_rule() -> MatchRule {
    MatchRule::new(
        vec![
            WeightedAttr::new(
                0,
                0.30,
                AttributeSim::Levenshtein {
                    max_chars: Some(350),
                },
            ),
            WeightedAttr::new(1, 0.20, AttributeSim::JaroWinkler),
            WeightedAttr::new(2, 0.15, AttributeSim::JaccardTokens),
            WeightedAttr::new(3, 0.15, AttributeSim::QGram { q: 2 }),
            WeightedAttr::new(4, 0.10, AttributeSim::Exact),
            WeightedAttr::new(5, 0.10, AttributeSim::Soundex),
            WeightedAttr::new(
                6,
                0.10,
                AttributeSim::Levenshtein {
                    max_chars: Some(350),
                },
            ),
        ],
        0.8,
    )
}

fn entity(i: usize) -> Vec<String> {
    vec![
        format!("progressive entity resolution with mapreduce number {i}"),
        format!("author name {i}"),
        format!("alpha beta gamma token{}", i % 7),
        format!("qgram material {i} with shared substrings"),
        format!("cat{}", i % 3),
        format!("Robertson{i}"),
        abstract_text(i),
    ]
}

/// An ASCII abstract of 200–350 chars, varying per entity.
fn abstract_text(i: usize) -> String {
    let words: Vec<&str> =
        "we present a progressive approach to entity resolution on mapreduce that emits duplicates early"
            .split(' ')
            .collect();
    let len = 200 + (i * 37) % 151;
    let mut text = String::new();
    let mut k = i;
    while text.len() < len {
        text.push_str(words[k % words.len()]);
        text.push(' ');
        k += 3;
    }
    text.truncate(len);
    text
}

#[test]
fn prepared_pair_path_allocates_nothing() {
    let rule = six_kernel_rule();
    let prepared = PreparedRule::new(rule);
    let mut interner = TokenInterner::new();
    let mut scratch = SimScratch::new();

    // Preparation allocates (signatures, interner growth) — all up front.
    let entities: Vec<_> = (0..32)
        .map(|i| prepared.prepare(&entity(i), &mut interner))
        .collect();

    // Warm the scratch buffers to their high-water mark.
    let mut sink = 0.0f64;
    for a in &entities {
        for b in &entities {
            sink += prepared.score(a, b, &mut scratch);
            sink += f64::from(prepared.matches(a, b, &mut scratch));
        }
    }

    // From here on: zero heap traffic over thousands of pair comparisons.
    let before = allocations();
    for _ in 0..4 {
        for a in &entities {
            for b in &entities {
                sink += prepared.score(a, b, &mut scratch);
                sink += f64::from(prepared.matches(a, b, &mut scratch));
            }
        }
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "prepared score/matches must not allocate per pair (sink {sink})"
    );
}

#[test]
fn unicode_fallback_path_allocates_nothing() {
    // The DP fallback (non-ASCII chars) must also be allocation-free.
    let rule = MatchRule::new(
        vec![
            WeightedAttr::new(0, 0.7, AttributeSim::Levenshtein { max_chars: None }),
            WeightedAttr::new(1, 0.3, AttributeSim::JaroWinkler),
        ],
        0.8,
    );
    let prepared = PreparedRule::new(rule);
    let mut interner = TokenInterner::new();
    let mut scratch = SimScratch::new();
    let a = prepared.prepare(
        &["café résumé naïve übermäßig".into(), "αβγδε".into()],
        &mut interner,
    );
    let b = prepared.prepare(
        &["cafe resume naive ubermassig".into(), "αβγδζ".into()],
        &mut interner,
    );

    // Warm-up: both entry points, so every scratch buffer reaches its
    // high-water mark before counting starts.
    let mut sink = prepared.score(&a, &b, &mut scratch);
    sink += f64::from(prepared.matches(&a, &b, &mut scratch));
    let before = allocations();
    for _ in 0..1000 {
        sink += prepared.score(&a, &b, &mut scratch);
        sink += f64::from(prepared.matches(&a, &b, &mut scratch));
    }
    assert_eq!(
        allocations() - before,
        0,
        "unicode fallback must not allocate per pair (sink {sink})"
    );
}
