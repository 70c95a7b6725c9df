//! Checkpointed progressive resume for the resolution job.
//!
//! Progressive ER's defining promise is that results survive early
//! termination: duplicates emitted before a crash are not lost, and a
//! resumed run must pick up exactly where the killed one stopped. A
//! [`Checkpoint`] captures everything the second job needs to do that:
//!
//! * the generated [`Schedule`] (so resume never re-runs the first job or
//!   schedule generation — only the first job's virtual cost is kept, to
//!   splice timelines);
//! * per reduce task, a [`TaskCheckpoint`] with the *resolved-block
//!   watermark* (`blocks_done` into `Schedule::block_order`), the task's
//!   virtual clock at that watermark, the per-tree resolved-pair sets
//!   (parents must still skip work their checkpointed children already
//!   did), and the duplicates found so far with their task-local costs.
//!
//! Checkpoints are cut at block granularity: a crash mid-block rolls the
//! partial block back (its resolved-pair insertions and duplicates are
//! discarded), so the resumed run re-executes that block from the
//! checkpointed clock and — execution being deterministic — lands on
//! exactly the virtual times the uninterrupted run would have produced.
//! The e2e contract, proven by `tests/resume_checkpoint.rs`: crash + resume
//! yields a bit-identical duplicate set and recall curve.
//!
//! # Wire format
//!
//! A checkpoint persists as compact JSON, written and read by the direct
//! codec in this module. Durable runs cut one after every stage, so the
//! codec builds no intermediate value tree: [`Checkpoint::to_json`] appends
//! every field to one pre-sized `String`, and [`Checkpoint::from_json`]
//! builds the checkpoint and its schedule in one pass over the bytes.
//!
//! The bytes are fixed by the journals already on disk:
//!
//! * objects list their fields in struct declaration order, with no
//!   whitespace; tuples are arrays; `Option::None` is `null`;
//! * floats print in Rust's shortest round-trip `Display` form (no
//!   exponent, no `.0` on integral values); non-finite floats print as
//!   `null`, which the decoder rejects;
//! * strings escape `"`, `\`, and control characters, using the short
//!   forms `\n \r \t \b \f` where one exists and `\u00XX` otherwise.
//!
//! The decoder accepts any JSON whitespace and field order, and rejects
//! unknown, missing and repeated fields. Every malformed input is an
//! [`MrError::Checkpoint`], never a panic.

use std::borrow::Cow;
use std::fmt::Write as _;

use pper_mapreduce::MrError;
use pper_schedule::plan::BlockRef;
use pper_schedule::{PlanNode, PlanTree, Schedule};

/// Resume state of one reduce task of the resolution job.
#[derive(Debug, Clone)]
pub struct TaskCheckpoint {
    /// Reduce task index.
    pub task: usize,
    /// Watermark: blocks `0..blocks_done` of
    /// `Schedule::block_order[task]` are fully resolved.
    pub blocks_done: usize,
    /// The task's virtual clock right after the last completed block
    /// (includes startup, shuffle, and all per-block charges up to the
    /// watermark). Resume continues the clock from exactly this value.
    pub clock: f64,
    /// Per tree (by tree id, strictly increasing): pairs already compared
    /// in this task, normalized `a < b` and strictly increasing. Parent
    /// blocks resolved after resume must still skip them.
    pub resolved: Vec<(usize, Vec<(u32, u32)>)>,
    /// Duplicates found before the crash as `(task-local cost, a, b)`,
    /// in discovery order. Replayed verbatim on resume so the global
    /// timeline and segment files come out identical.
    pub duplicates: Vec<(f64, u32, u32)>,
}

/// Everything needed to resume a killed resolution job.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The generated progressive schedule the killed run was executing.
    pub schedule: Schedule,
    /// Virtual completion time of the first job (statistics gathering);
    /// the resumed job-2 timeline is offset by this, exactly like an
    /// uninterrupted pipeline run.
    pub job1_cost: f64,
    /// The task-local virtual cost at which each reduce task was killed.
    pub crash_at: f64,
    /// Machine count μ of the killed run (resume must match it — the wave
    /// layout determines the global timeline).
    pub machines: usize,
    /// One entry per reduce task, indexed by task id.
    pub tasks: Vec<TaskCheckpoint>,
}

impl Checkpoint {
    /// Validate internal consistency and compatibility with the
    /// configuration about to resume it.
    pub fn validate(&self, machines: usize) -> Result<(), MrError> {
        let err = |msg: String| Err(MrError::Checkpoint(msg));
        if self.machines != machines {
            return err(format!(
                "checkpoint was cut on {} machines but resume is configured for {machines}",
                self.machines
            ));
        }
        self.validate_schedule()?;
        if self.tasks.len() != self.schedule.num_tasks {
            return err(format!(
                "checkpoint has {} task entries but the schedule expects {}",
                self.tasks.len(),
                self.schedule.num_tasks
            ));
        }
        for (idx, t) in self.tasks.iter().enumerate() {
            if t.task != idx {
                return err(format!(
                    "task entry {idx} records task id {} (entries must be in task order)",
                    t.task
                ));
            }
            let blocks = self.schedule.block_order[idx].len();
            if t.blocks_done > blocks {
                return err(format!(
                    "task {idx} claims {} resolved blocks but its schedule has only {blocks}",
                    t.blocks_done
                ));
            }
            if !t.clock.is_finite() || t.clock < 0.0 {
                return err(format!(
                    "task {idx} has a non-finite or negative clock ({})",
                    t.clock
                ));
            }
            let mut prev_tree = None;
            for (tree, pairs) in &t.resolved {
                if *tree >= self.schedule.trees.len() {
                    return err(format!(
                        "task {idx} references tree {tree}, but the schedule has only {}",
                        self.schedule.trees.len()
                    ));
                }
                if prev_tree.is_some_and(|prev| *tree <= prev) {
                    return err(format!(
                        "task {idx} resolved-pair sets are not in strictly increasing tree order \
                         (tree {tree} follows tree {})",
                        prev_tree.unwrap_or_default()
                    ));
                }
                prev_tree = Some(*tree);
                if let Some((a, b)) = pairs.iter().find(|(a, b)| a >= b) {
                    return err(format!(
                        "task {idx} tree {tree} holds the unnormalized pair ({a}, {b})"
                    ));
                }
                if let Some(w) = pairs.windows(2).find(|w| w[1] <= w[0]) {
                    return err(format!(
                        "task {idx} tree {tree} pairs are not strictly increasing \
                         ({:?} follows {:?})",
                        w[1], w[0]
                    ));
                }
            }
            for w in t.duplicates.windows(2) {
                if w[1].0 < w[0].0 {
                    return err(format!(
                        "task {idx} duplicates are not in cost order ({} after {})",
                        w[1].0, w[0].0
                    ));
                }
            }
            if let Some(&(cost, _, _)) = t.duplicates.last() {
                if cost > t.clock {
                    return err(format!(
                        "task {idx} records a duplicate at cost {cost} past its clock {}",
                        t.clock
                    ));
                }
            }
        }
        Ok(())
    }

    /// The schedule's shape: per-tree and per-task tables have one entry
    /// per tree and task, and every block reference and node link points
    /// inside its tree — so resuming can index the schedule freely.
    fn validate_schedule(&self) -> Result<(), MrError> {
        let s = &self.schedule;
        let err = |msg: String| Err(MrError::Checkpoint(msg));
        if s.block_order.len() != s.num_tasks {
            return err(format!(
                "schedule has {} block orders for {} tasks",
                s.block_order.len(),
                s.num_tasks
            ));
        }
        let trees = s.trees.len();
        for (what, len) in [
            ("task_of_tree", s.task_of_tree.len()),
            ("tree_sq", s.tree_sq.len()),
            ("dom", s.dom.len()),
        ] {
            if len != trees {
                return err(format!(
                    "schedule has {len} `{what}` entries for {trees} trees"
                ));
            }
        }
        if let Some(t) = s.task_of_tree.iter().find(|&&t| t >= s.num_tasks) {
            return err(format!(
                "schedule assigns a tree to task {t} of {}",
                s.num_tasks
            ));
        }
        for (ti, tree) in s.trees.iter().enumerate() {
            let nodes = tree.nodes.len();
            if nodes == 0 {
                return err(format!("schedule tree {ti} has no nodes"));
            }
            let in_range = |n: &PlanNode| {
                n.parent.is_none_or(|p| p < nodes) && n.children.iter().all(|&c| c < nodes)
            };
            if let Some(ni) = tree.nodes.iter().position(|n| !in_range(n)) {
                return err(format!(
                    "schedule tree {ti} node {ni} links outside its {nodes} nodes"
                ));
            }
        }
        for (task, blocks) in s.block_order.iter().enumerate() {
            let bad = blocks
                .iter()
                .find(|b| s.trees.get(b.tree).is_none_or(|t| b.node >= t.nodes.len()));
            if let Some(b) = bad {
                return err(format!(
                    "task {task} schedules block {}/{} outside the schedule",
                    b.tree, b.node
                ));
            }
        }
        Ok(())
    }

    /// Serialize to JSON (see the module docs for the format).
    pub fn to_json(&self) -> Result<String, MrError> {
        let mut out = String::with_capacity(self.encoded_len_estimate());
        encode_checkpoint(&mut out, self);
        Ok(out)
    }

    /// Deserialize from JSON produced by [`Checkpoint::to_json`].
    pub fn from_json(json: &str) -> Result<Self, MrError> {
        let mut c = Cursor { src: json, pos: 0 };
        let cp = decode_checkpoint(&mut c)?;
        if c.ws().is_some() {
            return Err(c.error("trailing characters"));
        }
        Ok(cp)
    }

    /// Total duplicates recorded across all task checkpoints.
    pub fn duplicates_found(&self) -> usize {
        self.tasks.iter().map(|t| t.duplicates.len()).sum()
    }

    /// Total resolved blocks across all task checkpoints.
    pub fn blocks_done(&self) -> usize {
        self.tasks.iter().map(|t| t.blocks_done).sum()
    }

    /// Blocks the resumed run still has to resolve.
    pub fn blocks_remaining(&self) -> usize {
        self.schedule
            .block_order
            .iter()
            .zip(&self.tasks)
            .map(|(blocks, t)| blocks.len() - t.blocks_done)
            .sum()
    }

    /// Upper-end guess of the encoded size, so encoding rarely regrows
    /// its buffer: fixed bytes per record plus the key text.
    fn encoded_len_estimate(&self) -> usize {
        let s = &self.schedule;
        let trees: usize = s
            .trees
            .iter()
            .map(|t| {
                let keys: usize = t
                    .nodes
                    .iter()
                    .map(|n| n.key.len() + 4 * n.children.len())
                    .sum();
                96 + t.origin_root_key.len() + keys + 220 * t.nodes.len()
            })
            .sum();
        let blocks: usize = s.block_order.iter().map(|b| 2 + 24 * b.len()).sum();
        let tasks: usize = self
            .tasks
            .iter()
            .map(|t| {
                let pairs: usize = t.resolved.iter().map(|(_, p)| 16 + 14 * p.len()).sum();
                96 + pairs + 32 * t.duplicates.len()
            })
            .sum();
        160 + trees + blocks + 36 * s.trees.len() + tasks
    }
}

// ---------------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------------

fn encode_checkpoint(out: &mut String, cp: &Checkpoint) {
    out.push_str("{\"schedule\":");
    encode_schedule(out, &cp.schedule);
    out.push_str(",\"job1_cost\":");
    push_f64(out, cp.job1_cost);
    out.push_str(",\"crash_at\":");
    push_f64(out, cp.crash_at);
    out.push_str(",\"machines\":");
    push_usize(out, cp.machines);
    out.push_str(",\"tasks\":");
    push_seq(out, &cp.tasks, encode_task);
    out.push('}');
}

fn encode_schedule(out: &mut String, s: &Schedule) {
    out.push_str("{\"trees\":");
    push_seq(out, &s.trees, encode_tree);
    out.push_str(",\"task_of_tree\":");
    push_seq(out, &s.task_of_tree, |out, &t| push_usize(out, t));
    out.push_str(",\"block_order\":");
    push_seq(out, &s.block_order, |out, blocks| {
        push_seq(out, blocks, |out, b| {
            out.push_str("{\"tree\":");
            push_usize(out, b.tree);
            out.push_str(",\"node\":");
            push_usize(out, b.node);
            out.push('}');
        })
    });
    out.push_str(",\"tree_sq\":");
    push_seq(out, &s.tree_sq, |out, &v| push_u64(out, v));
    out.push_str(",\"dom\":");
    push_seq(out, &s.dom, |out, &v| push_u64(out, v));
    out.push_str(",\"num_tasks\":");
    push_usize(out, s.num_tasks);
    out.push('}');
}

fn encode_tree(out: &mut String, t: &PlanTree) {
    out.push_str("{\"family\":");
    push_usize(out, t.family);
    out.push_str(",\"origin_root_key\":");
    push_escaped(out, &t.origin_root_key);
    out.push_str(",\"root_level\":");
    push_usize(out, t.root_level);
    out.push_str(",\"nodes\":");
    push_seq(out, &t.nodes, encode_node);
    out.push('}');
}

fn encode_node(out: &mut String, n: &PlanNode) {
    out.push_str("{\"key\":");
    push_escaped(out, &n.key);
    out.push_str(",\"level\":");
    push_usize(out, n.level);
    out.push_str(",\"parent\":");
    match n.parent {
        Some(p) => push_usize(out, p),
        None => out.push_str("null"),
    }
    out.push_str(",\"children\":");
    push_seq(out, &n.children, |out, &c| push_usize(out, c));
    out.push_str(",\"hier_leaf\":");
    out.push_str(if n.hier_leaf { "true" } else { "false" });
    out.push_str(",\"size\":");
    push_usize(out, n.size);
    out.push_str(",\"cov\":");
    push_u64(out, n.cov);
    out.push_str(",\"dup\":");
    push_f64(out, n.dup);
    out.push_str(",\"dis\":");
    push_f64(out, n.dis);
    out.push_str(",\"cost\":");
    push_f64(out, n.cost);
    out.push_str(",\"util\":");
    push_f64(out, n.util);
    out.push('}');
}

fn encode_task(out: &mut String, t: &TaskCheckpoint) {
    out.push_str("{\"task\":");
    push_usize(out, t.task);
    out.push_str(",\"blocks_done\":");
    push_usize(out, t.blocks_done);
    out.push_str(",\"clock\":");
    push_f64(out, t.clock);
    out.push_str(",\"resolved\":");
    push_seq(out, &t.resolved, |out, (tree, pairs)| {
        out.push('[');
        push_usize(out, *tree);
        out.push(',');
        push_seq(out, pairs, |out, &(a, b)| {
            out.push('[');
            push_u64(out, u64::from(a));
            out.push(',');
            push_u64(out, u64::from(b));
            out.push(']');
        });
        out.push(']');
    });
    out.push_str(",\"duplicates\":");
    push_seq(out, &t.duplicates, |out, &(cost, a, b)| {
        out.push('[');
        push_f64(out, cost);
        out.push(',');
        push_u64(out, u64::from(a));
        out.push(',');
        push_u64(out, u64::from(b));
        out.push(']');
    });
    out.push('}');
}

/// `[item,item,...]`.
fn push_seq<T>(out: &mut String, items: &[T], mut each: impl FnMut(&mut String, &T)) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        each(out, item);
    }
    out.push(']');
}

/// An integer in decimal. Checkpoints are mostly integers; writing them
/// here rather than through `write!` cuts encoding time by about a third.
fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [b'0'; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + u8::try_from(v % 10).unwrap_or(0);
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &d in &digits[i..] {
        out.push(char::from(d));
    }
}

fn push_usize(out: &mut String, v: usize) {
    // Lossless wherever `usize` is at most 64 bits wide.
    push_u64(out, u64::try_from(v).unwrap_or(u64::MAX));
}

fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `Display` never switches to exponent notation and prints the
        // shortest digits that parse back to the same bits. Writing to a
        // `String` cannot fail.
        let _ = write!(out, "{v}");
    } else {
        // JSON has no NaN or infinity.
        out.push_str("null");
    }
}

/// A JSON string literal. Only ASCII bytes are ever escaped, so the
/// unescaped runs between them split `s` on character boundaries.
fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if short.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(short);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

/// A single-pass read position over the JSON text.
struct Cursor<'a> {
    src: &'a str,
    pos: usize,
}

/// Decode one JSON object into a struct. Each `field: value` arm reads
/// that field's value with the cursor named `$c`; an unknown, missing or
/// repeated field is an error.
macro_rules! decode_struct {
    ($c:ident, $ty:ident { $($field:ident: $value:expr),* $(,)? }) => {{
        $( let mut $field = None; )*
        $c.object(|$c, key| match key {
            $( stringify!($field) => set(&mut $field, $value, stringify!($field)), )*
            other => Err($c.error(&format!("unknown field `{other}`"))),
        })?;
        $ty { $( $field: need($field, stringify!($field))?, )* }
    }};
}

fn set<T>(slot: &mut Option<T>, value: T, name: &str) -> Result<(), MrError> {
    match slot.replace(value) {
        None => Ok(()),
        Some(_) => Err(MrError::Checkpoint(format!("duplicate field `{name}`"))),
    }
}

fn need<T>(slot: Option<T>, name: &str) -> Result<T, MrError> {
    slot.ok_or_else(|| MrError::Checkpoint(format!("missing field `{name}`")))
}

fn decode_checkpoint(c: &mut Cursor<'_>) -> Result<Checkpoint, MrError> {
    Ok(decode_struct!(
        c,
        Checkpoint {
            schedule: decode_schedule(c)?,
            job1_cost: c.f64()?,
            crash_at: c.f64()?,
            machines: c.usize()?,
            tasks: c.vec(decode_task)?,
        }
    ))
}

fn decode_schedule(c: &mut Cursor<'_>) -> Result<Schedule, MrError> {
    Ok(decode_struct!(
        c,
        Schedule {
            trees: c.vec(decode_tree)?,
            task_of_tree: c.vec(Cursor::usize)?,
            block_order: c.vec(|c| c.vec(decode_block_ref))?,
            tree_sq: c.vec(Cursor::u64)?,
            dom: c.vec(Cursor::u64)?,
            num_tasks: c.usize()?,
        }
    ))
}

fn decode_tree(c: &mut Cursor<'_>) -> Result<PlanTree, MrError> {
    Ok(decode_struct!(
        c,
        PlanTree {
            family: c.usize()?,
            origin_root_key: c.string()?.into_owned(),
            root_level: c.usize()?,
            nodes: c.vec(decode_node)?,
        }
    ))
}

fn decode_node(c: &mut Cursor<'_>) -> Result<PlanNode, MrError> {
    Ok(decode_struct!(
        c,
        PlanNode {
            key: c.string()?.into_owned(),
            level: c.usize()?,
            parent: c.opt_usize()?,
            children: c.vec(Cursor::usize)?,
            hier_leaf: c.bool()?,
            size: c.usize()?,
            cov: c.u64()?,
            dup: c.f64()?,
            dis: c.f64()?,
            cost: c.f64()?,
            util: c.f64()?,
        }
    ))
}

fn decode_block_ref(c: &mut Cursor<'_>) -> Result<BlockRef, MrError> {
    Ok(decode_struct!(
        c,
        BlockRef {
            tree: c.usize()?,
            node: c.usize()?,
        }
    ))
}

fn decode_task(c: &mut Cursor<'_>) -> Result<TaskCheckpoint, MrError> {
    Ok(decode_struct!(
        c,
        TaskCheckpoint {
            task: c.usize()?,
            blocks_done: c.usize()?,
            clock: c.f64()?,
            resolved: c.vec(|c| {
                c.eat(b'[')?;
                let tree = c.usize()?;
                c.eat(b',')?;
                let pairs = c.vec(|c| {
                    c.eat(b'[')?;
                    let a = c.u32()?;
                    c.eat(b',')?;
                    let b = c.u32()?;
                    c.eat(b']')?;
                    Ok((a, b))
                })?;
                c.eat(b']')?;
                Ok((tree, pairs))
            })?,
            duplicates: c.vec(|c| {
                c.eat(b'[')?;
                let cost = c.f64()?;
                c.eat(b',')?;
                let a = c.u32()?;
                c.eat(b',')?;
                let b = c.u32()?;
                c.eat(b']')?;
                Ok((cost, a, b))
            })?,
        }
    ))
}

impl<'a> Cursor<'a> {
    fn error(&self, what: &str) -> MrError {
        MrError::Checkpoint(format!("{what} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    /// Skip whitespace and return the next byte without consuming it.
    fn ws(&mut self) -> Option<u8> {
        while let Some(b) = self.peek() {
            if !matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                return Some(b);
            }
            self.pos += 1;
        }
        None
    }

    /// Consume `want` after optional whitespace.
    fn eat(&mut self, want: u8) -> Result<(), MrError> {
        if self.ws() == Some(want) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", char::from(want))))
        }
    }

    /// Consume `lit` if the text continues with it right here.
    fn literal(&mut self, lit: &str) -> bool {
        let hit = self
            .src
            .as_bytes()
            .get(self.pos..)
            .is_some_and(|rest| rest.starts_with(lit.as_bytes()));
        if hit {
            self.pos += lit.len();
        }
        hit
    }

    /// The text between two byte positions the cursor has stopped at.
    fn slice(&self, from: usize, to: usize) -> Result<&'a str, MrError> {
        self.src
            .get(from..to)
            .ok_or_else(|| self.error("split inside a character"))
    }

    /// `{"key": value, ...}`: hands each key to `field`, which must
    /// consume its value.
    fn object(
        &mut self,
        mut field: impl FnMut(&mut Self, &str) -> Result<(), MrError>,
    ) -> Result<(), MrError> {
        self.eat(b'{')?;
        if self.ws() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            field(self, &key)?;
            match self.ws() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    /// `[item, ...]`, with `item` reading each element.
    fn vec<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, MrError>,
    ) -> Result<Vec<T>, MrError> {
        let mut out = Vec::new();
        self.eat(b'[')?;
        if self.ws() == Some(b']') {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            out.push(item(self)?);
            match self.ws() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    /// A string literal, borrowed from the input unless it has escapes.
    fn string(&mut self) -> Result<Cow<'a, str>, MrError> {
        self.eat(b'"')?;
        let mut owned: Option<String> = None;
        let mut run = self.pos;
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    let tail = self.slice(run, self.pos)?;
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(tail),
                        Some(mut s) => {
                            s.push_str(tail);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(self.slice(run, self.pos)?);
                    self.pos += 1;
                    s.push(self.escape()?);
                    run = self.pos;
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    /// The character an escape sequence stands for; the cursor sits just
    /// past its backslash.
    fn escape(&mut self) -> Result<char, MrError> {
        let b = self
            .peek()
            .ok_or_else(|| self.error("unterminated escape"))?;
        self.pos += 1;
        Ok(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{08}',
            b'f' => '\u{0c}',
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    if !self.literal("\\u") {
                        return Err(self.error("unpaired high surrogate"));
                    }
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.error("invalid low surrogate"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                char::from_u32(code).ok_or_else(|| self.error("invalid unicode escape"))?
            }
            _ => return Err(self.error("invalid escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, MrError> {
        let mut v = 0;
        for _ in 0..4 {
            let digit = self
                .peek()
                .and_then(|b| char::from(b).to_digit(16))
                .ok_or_else(|| self.error("invalid unicode escape"))?;
            v = v * 16 + digit;
            self.pos += 1;
        }
        Ok(v)
    }

    fn u64(&mut self) -> Result<u64, MrError> {
        self.ws();
        let start = self.pos;
        let mut v: u64 = 0;
        while let Some(b @ b'0'..=b'9') = self.peek() {
            v = v
                .checked_mul(10)
                .and_then(|v| v.checked_add(u64::from(b - b'0')))
                .ok_or_else(|| self.error("integer out of range"))?;
            self.pos += 1;
        }
        // A sign, fraction, or exponent makes the token a float or a
        // negative number, neither of which an unsigned field takes.
        if self.pos == start || matches!(self.peek(), Some(b'.' | b'e' | b'E' | b'+' | b'-')) {
            return Err(self.error("expected an unsigned integer"));
        }
        Ok(v)
    }

    fn usize(&mut self) -> Result<usize, MrError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| self.error("integer out of range for usize"))
    }

    fn u32(&mut self) -> Result<u32, MrError> {
        let v = self.u64()?;
        u32::try_from(v).map_err(|_| self.error("integer out of range for u32"))
    }

    fn opt_usize(&mut self) -> Result<Option<usize>, MrError> {
        if self.ws() == Some(b'n') {
            return if self.literal("null") {
                Ok(None)
            } else {
                Err(self.error("invalid literal"))
            };
        }
        self.usize().map(Some)
    }

    /// A number: an optional `-`, then the longest run of digits, `.`,
    /// `e`, `E`, `+` and `-`, which must parse as an `f64`.
    fn f64(&mut self) -> Result<f64, MrError> {
        let start = match self.ws() {
            Some(b'-' | b'0'..=b'9') => self.pos,
            _ => return Err(self.error("expected a number")),
        };
        self.pos += 1;
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = self.peek() {
            self.pos += 1;
        }
        self.slice(start, self.pos)?
            .parse()
            .map_err(|_| self.error("invalid number"))
    }

    fn bool(&mut self) -> Result<bool, MrError> {
        self.ws();
        if self.literal("true") {
            Ok(true)
        } else if self.literal("false") {
            Ok(false)
        } else {
            Err(self.error("expected `true` or `false`"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_checkpoint() -> Checkpoint {
        // A structurally minimal schedule: one single-node tree per task,
        // enough for the codec and for validation's shape checks.
        let tree = |key: &str| PlanTree {
            family: 0,
            origin_root_key: key.to_string(),
            root_level: 0,
            nodes: vec![PlanNode {
                key: key.to_string(),
                level: 0,
                parent: None,
                children: Vec::new(),
                hier_leaf: true,
                size: 3,
                cov: 3,
                dup: 0.5,
                dis: 2.5,
                cost: 4.0,
                util: 0.125,
            }],
        };
        let schedule = Schedule {
            trees: vec![tree("ab"), tree("cd")],
            task_of_tree: vec![0, 1],
            block_order: vec![vec![BlockRef { tree: 0, node: 0 }], Vec::new()],
            tree_sq: vec![0, Schedule::SQ_RANGE],
            dom: vec![1, 2],
            num_tasks: 2,
        };
        Checkpoint {
            schedule,
            job1_cost: 1234.5,
            crash_at: 500.0,
            machines: 1,
            tasks: vec![
                TaskCheckpoint {
                    task: 0,
                    blocks_done: 0,
                    clock: 60.0,
                    resolved: vec![(0, vec![(1, 2), (1, 3), (2, 3)])],
                    duplicates: vec![(55.0, 1, 2)],
                },
                TaskCheckpoint {
                    task: 1,
                    blocks_done: 0,
                    clock: 50.0,
                    resolved: Vec::new(),
                    duplicates: Vec::new(),
                },
            ],
        }
    }

    #[test]
    fn json_round_trip() {
        let cp = tiny_checkpoint();
        let json = cp.to_json().unwrap();
        let back = Checkpoint::from_json(&json).unwrap();
        assert_eq!(back.job1_cost, cp.job1_cost);
        assert_eq!(back.tasks.len(), 2);
        assert_eq!(back.tasks[0].duplicates, vec![(55.0, 1, 2)]);
        assert_eq!(back.tasks[0].resolved, cp.tasks[0].resolved);
        assert!(back.validate(1).is_ok());
        assert_eq!(back.to_json().unwrap(), json);
    }

    #[test]
    fn encoding_matches_the_documented_format() {
        let mut cp = tiny_checkpoint();
        cp.schedule.trees.truncate(1);
        cp.schedule.trees[0].nodes[0].key = "a\"\\\n\u{1}é".into();
        cp.schedule.trees[0].nodes[0].dup = f64::NAN;
        cp.tasks.truncate(1);
        let json = cp.to_json().unwrap();
        let node = "{\"key\":\"a\\\"\\\\\\n\\u0001é\",\"level\":0,\"parent\":null,\
                    \"children\":[],\"hier_leaf\":true,\"size\":3,\"cov\":3,\
                    \"dup\":null,\"dis\":2.5,\"cost\":4,\"util\":0.125}";
        assert!(json.contains(node), "{json}");
        assert!(json.ends_with(
            ",\"job1_cost\":1234.5,\"crash_at\":500,\"machines\":1,\"tasks\":[{\"task\":0,\
             \"blocks_done\":0,\"clock\":60,\"resolved\":[[0,[[1,2],[1,3],[2,3]]]],\
             \"duplicates\":[[55,1,2]]}]}"
        ));
    }

    #[test]
    fn decoder_tolerates_whitespace_and_field_order() {
        let json = tiny_checkpoint().to_json().unwrap();
        let spaced = json.replace(",\"", ",\n  \"").replace(':', " : ");
        let back = Checkpoint::from_json(&format!(" {spaced} ")).unwrap();
        assert_eq!(back.to_json().unwrap(), json);

        let reordered = json.replacen(
            "{\"task\":0,\"blocks_done\":0,",
            "{\"blocks_done\":0,\"task\":0,",
            1,
        );
        assert_eq!(
            Checkpoint::from_json(&reordered)
                .unwrap()
                .to_json()
                .unwrap(),
            json
        );
    }

    #[test]
    fn validate_rejects_mismatches() {
        let cp = tiny_checkpoint();
        assert!(matches!(cp.validate(3), Err(MrError::Checkpoint(_))));

        let mut wrong_tasks = tiny_checkpoint();
        wrong_tasks.tasks.pop();
        assert!(wrong_tasks.validate(1).is_err());

        let mut bad_watermark = tiny_checkpoint();
        bad_watermark.tasks[0].blocks_done = 7;
        assert!(bad_watermark.validate(1).is_err());

        let mut bad_clock = tiny_checkpoint();
        bad_clock.tasks[1].clock = f64::NAN;
        assert!(bad_clock.validate(1).is_err());

        let mut late_dup = tiny_checkpoint();
        late_dup.tasks[0].duplicates.push((100.0, 3, 4));
        assert!(late_dup.validate(1).is_err());
    }

    #[test]
    fn validate_rejects_malformed_resolved_sets() {
        let rejects = |edit: fn(&mut TaskCheckpoint), what: &str| {
            let mut cp = tiny_checkpoint();
            edit(&mut cp.tasks[0]);
            match cp.validate(1) {
                Err(MrError::Checkpoint(msg)) => assert!(msg.contains(what), "{msg}"),
                other => panic!("expected a checkpoint error about {what}, got {other:?}"),
            }
        };
        rejects(|t| t.resolved.push((0, vec![(5, 6)])), "tree order");
        rejects(
            |t| t.resolved = vec![(1, vec![(1, 2)]), (0, vec![(1, 2)])],
            "tree order",
        );
        rejects(|t| t.resolved.push((9, Vec::new())), "references tree 9");
        rejects(|t| t.resolved[0].1[1] = (3, 1), "unnormalized pair (3, 1)");
        rejects(|t| t.resolved[0].1[1] = (4, 4), "unnormalized pair (4, 4)");
        rejects(|t| t.resolved[0].1.swap(1, 2), "not strictly increasing");
        rejects(|t| t.resolved[0].1[1] = (1, 2), "not strictly increasing");
    }

    #[test]
    fn validate_rejects_malformed_schedules() {
        let rejects = |edit: fn(&mut Schedule)| {
            let mut cp = tiny_checkpoint();
            edit(&mut cp.schedule);
            assert!(matches!(cp.validate(1), Err(MrError::Checkpoint(_))));
        };
        rejects(|s| {
            s.block_order.pop();
        });
        rejects(|s| s.tree_sq.push(7));
        rejects(|s| s.task_of_tree[1] = 2);
        rejects(|s| s.trees[1].nodes.clear());
        rejects(|s| s.trees[0].nodes[0].children.push(1));
        rejects(|s| s.trees[0].nodes[0].parent = Some(3));
        rejects(|s| s.block_order[0][0].node = 1);
        rejects(|s| s.block_order[1].push(BlockRef { tree: 2, node: 0 }));
    }

    #[test]
    fn garbage_json_is_a_checkpoint_error() {
        assert!(matches!(
            Checkpoint::from_json("{not json"),
            Err(MrError::Checkpoint(_))
        ));
    }
}
