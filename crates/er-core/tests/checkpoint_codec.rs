//! Compatibility of the checkpoint codec with the checkpoints already in
//! journals on disk.
//!
//! `golden/checkpoint_pubs200.json` holds the checkpoint of
//! `PubGen::new(200, 41)` under `ErConfig::citeseer(2)` killed at
//! task-local cost 600.5, as the serde-derived encoder that predates the
//! direct codec wrote it. It has split sub-trees, `null` parents, resolved
//! pairs and duplicates in both tasks. The codec must read it, write it back
//! byte for byte, and resume from it to the uninterrupted run's result.
//! Two property tests cover shapes the golden lacks: arbitrary floats
//! (integral, ≥ 1e21, subnormal), empty lists, and arbitrary block keys.

use pper_datagen::PubGen;
use pper_er::checkpoint::{Checkpoint, TaskCheckpoint};
use pper_er::{ErConfig, ProgressiveEr, ResultFingerprint};
use pper_schedule::plan::BlockRef;
use pper_schedule::{PlanNode, PlanTree, Schedule};
use proptest::collection::vec;
use proptest::prelude::*;

const GOLDEN: &str = include_str!("golden/checkpoint_pubs200.json");

fn golden_setup() -> (pper_datagen::Dataset, ProgressiveEr) {
    (
        PubGen::new(200, 41).generate(),
        ProgressiveEr::new(ErConfig::citeseer(2)),
    )
}

#[test]
fn golden_checkpoint_decodes_and_reencodes_byte_for_byte() {
    let cp = Checkpoint::from_json(GOLDEN).unwrap();
    cp.validate(2).unwrap();
    assert!(cp.blocks_done() > 0 && cp.blocks_remaining() > 0);
    assert!(cp.tasks.iter().all(|t| !t.resolved.is_empty()));
    assert!(cp.schedule.trees.iter().any(|t| t.root_level > 0));
    assert_eq!(cp.to_json().unwrap(), GOLDEN);
}

#[test]
fn this_build_cuts_the_golden_checkpoint() {
    let (ds, er) = golden_setup();
    let cp = er.run_to_crash(&ds, 600.5).unwrap();
    assert_eq!(cp.to_json().unwrap(), GOLDEN);
}

#[test]
fn resume_from_golden_checkpoint_matches_an_uninterrupted_run() {
    let (ds, er) = golden_setup();
    let clean = ResultFingerprint::of(&er.try_run(&ds).unwrap());
    let cp = Checkpoint::from_json(GOLDEN).unwrap();
    let resumed = ResultFingerprint::of(&er.resume(&ds, &cp).unwrap());
    assert_eq!(resumed, clean);
}

/// Every float of a checkpoint, as its bits, in a fixed order.
fn float_bits(cp: &Checkpoint) -> Vec<u64> {
    let mut out = vec![cp.job1_cost.to_bits(), cp.crash_at.to_bits()];
    for n in cp.schedule.trees.iter().flat_map(|t| &t.nodes) {
        out.extend([n.dup, n.dis, n.cost, n.util].map(f64::to_bits));
    }
    for t in &cp.tasks {
        out.push(t.clock.to_bits());
        out.extend(t.duplicates.iter().map(|d| d.0.to_bits()));
    }
    out
}

fn assert_same_checkpoint(a: &Checkpoint, b: &Checkpoint) {
    assert_eq!(
        float_bits(a),
        float_bits(b),
        "floats must round-trip bit for bit"
    );
    // Everything else compares structurally through `Debug`.
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

/// Draws values from generated raw material, cycling through it.
struct Material {
    nums: Vec<u64>,
    floats: Vec<(u8, u64)>,
    keys: Vec<String>,
    at: usize,
}

impl Material {
    fn next(&mut self) -> usize {
        self.at += 1;
        self.at
    }

    fn num(&mut self) -> u64 {
        let i = self.next();
        self.nums[i % self.nums.len()]
    }

    /// A small count, so lists are often empty.
    fn count(&mut self) -> usize {
        (self.num() % 4) as usize
    }

    fn key(&mut self) -> String {
        let i = self.next();
        self.keys[i % self.keys.len()].clone()
    }

    /// A finite float of one of the shapes the encoder prints differently.
    fn float(&mut self) -> f64 {
        let i = self.next();
        let (shape, bits) = self.floats[i % self.floats.len()];
        let any = f64::from_bits(bits);
        let any = if any.is_finite() { any } else { -0.0 };
        match shape % 7 {
            0 => any,
            // Integral: printed without a fraction.
            1 => (bits % 1_000_000) as f64,
            // At least 1e21: printed as a long digit string, no exponent.
            2 => 1e21 * (1.0 + (bits % 1_000) as f64 / 7.0),
            3 => f64::MAX,
            // Subnormal and tiny normal values.
            4 => f64::from_bits(bits % 0x0010_0000_0000_0000),
            5 => any.abs() * 1e-300,
            _ => (bits % 1_000) as f64 / 8.0,
        }
    }
}

fn build_checkpoint(m: &mut Material) -> Checkpoint {
    let trees: Vec<PlanTree> = (0..m.count())
        .map(|_| PlanTree {
            family: m.num() as usize,
            origin_root_key: m.key(),
            root_level: m.count(),
            nodes: (0..1 + m.count())
                .map(|i| PlanNode {
                    key: m.key(),
                    level: m.num() as usize,
                    parent: (i > 0).then(|| m.count()),
                    children: (0..m.count()).map(|_| m.num() as usize).collect(),
                    hier_leaf: m.num().is_multiple_of(2),
                    size: m.num() as usize,
                    cov: m.num(),
                    dup: m.float(),
                    dis: m.float(),
                    cost: m.float(),
                    util: m.float(),
                })
                .collect(),
        })
        .collect();
    let num_tasks = m.count();
    let schedule = Schedule {
        task_of_tree: trees.iter().map(|_| m.count()).collect(),
        tree_sq: trees.iter().map(|_| m.num()).collect(),
        dom: trees.iter().map(|_| m.num()).collect(),
        block_order: (0..num_tasks)
            .map(|_| {
                (0..m.count())
                    .map(|_| BlockRef {
                        tree: m.count(),
                        node: m.num() as usize,
                    })
                    .collect()
            })
            .collect(),
        trees,
        num_tasks,
    };
    let tasks = (0..num_tasks)
        .map(|task| TaskCheckpoint {
            task,
            blocks_done: m.count(),
            clock: m.float(),
            resolved: (0..m.count())
                .map(|_| {
                    let tree = m.num() as usize;
                    let pairs = (0..m.count())
                        .map(|_| ((m.num() >> 32) as u32, m.num() as u32))
                        .collect();
                    (tree, pairs)
                })
                .collect(),
            duplicates: (0..m.count())
                .map(|_| (m.float(), m.num() as u32, (m.num() >> 40) as u32))
                .collect(),
        })
        .collect();
    Checkpoint {
        schedule,
        job1_cost: m.float(),
        crash_at: m.float(),
        machines: m.num() as usize,
        tasks,
    }
}

/// Strings mixing control characters, quotes, backslashes, slashes, ASCII
/// and arbitrary Unicode scalars.
fn arb_string() -> impl Strategy<Value = String> {
    vec((0u8..5, 0u32..0x11_0000), 0..24).prop_map(|chars| {
        chars
            .into_iter()
            .map(|(shape, v)| match shape {
                0 => char::from_u32(v % 0x20).unwrap_or('\0'),
                1 => ['"', '\\', '/', '\u{7f}'][(v % 4) as usize],
                2 => char::from_u32(0x20 + v % 0x5f).unwrap_or(' '),
                _ => char::from_u32(v).unwrap_or('\u{fffd}'),
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn decode_of_encode_is_identity(
        nums in vec(0u64..u64::MAX, 1..48),
        floats in vec((0u8..7, 0u64..u64::MAX), 1..48),
        keys in vec(arb_string(), 1..6),
    ) {
        let mut material = Material { nums, floats, keys, at: 0 };
        let cp = build_checkpoint(&mut material);
        let json = cp.to_json().unwrap();
        let back = Checkpoint::from_json(&json).unwrap();
        assert_same_checkpoint(&back, &cp);
        prop_assert_eq!(back.to_json().unwrap(), json);
    }

    #[test]
    fn block_keys_escape_like_serde_json(key in arb_string()) {
        let mut material = Material {
            nums: vec![1],
            floats: vec![(6, 12)],
            keys: vec![key.clone()],
            at: 0,
        };
        let mut cp = build_checkpoint(&mut material);
        cp.schedule.trees = vec![PlanTree {
            family: 0,
            origin_root_key: key.clone(),
            root_level: 0,
            nodes: vec![PlanNode {
                key: key.clone(),
                level: 0,
                parent: None,
                children: Vec::new(),
                hier_leaf: true,
                size: 1,
                cov: 0,
                dup: 0.0,
                dis: 0.0,
                cost: 0.0,
                util: 0.0,
            }],
        }];
        let json = cp.to_json().unwrap();
        let escaped = serde_json::to_string(&key).unwrap();
        prop_assert!(json.contains(&format!("\"origin_root_key\":{escaped},")), "{json}");
        prop_assert!(json.contains(&format!("{{\"key\":{escaped},")), "{json}");
        let back = Checkpoint::from_json(&json).unwrap();
        prop_assert_eq!(&back.schedule.trees[0].nodes[0].key, &key);
        prop_assert_eq!(&back.schedule.trees[0].origin_root_key, &key);
    }
}
