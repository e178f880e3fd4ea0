//! Property test: [`EventQueue`] against its definition, driven in
//! lockstep over arbitrary push / pop / push_classed interleavings.
//!
//! The reference is a `Vec` of `(time, class, seq, payload)` whose pop
//! removes the minimum `(time, class, seq)` by linear scan — the total
//! order the driver's event loop relies on, written out with no
//! structure at all. For every operation sequence, every pop must return
//! the same `(time, payload)` from both — including same-instant ties
//! broken by `(class, seq)`, gaps far longer than a minute, and
//! zero-delay pushes at the current watermark. `PROPTEST_CASES` raises
//! the case count.

use proptest::prelude::*;
use simcore::{EventClass, EventQueue, SimTime};

/// The naive reference: an unordered `Vec`, scanned in full on every pop.
#[derive(Default)]
struct Reference {
    pending: Vec<(SimTime, EventClass, u64, usize)>,
    next_seq: u64,
}

impl Reference {
    fn push_classed(&mut self, time: SimTime, class: EventClass, payload: usize) {
        self.pending.push((time, class, self.next_seq, payload));
        self.next_seq += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, usize)> {
        let min = (0..self.pending.len()).min_by_key(|&i| {
            let (t, c, s, _) = self.pending[i];
            (t, c, s)
        })?;
        let (t, _, _, payload) = self.pending.swap_remove(min);
        Some((t, payload))
    }
}

/// One scripted operation. `dt` offsets from the last popped time so the
/// script can never violate the watermark; small ranges force heavy
/// same-instant collision.
#[derive(Debug, Clone, Copy)]
enum Op {
    Push { dt: u64, class: u8 },
    Pop,
}

fn run_script(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut queue = EventQueue::new();
    let mut reference = Reference::default();
    let mut now = 0u64;
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Push { dt, class } => {
                let t = SimTime::new(now + dt);
                let class = EventClass(class);
                queue.push_classed(t, class, i);
                reference.push_classed(t, class, i);
            }
            Op::Pop => {
                let a = queue.pop();
                let b = reference.pop();
                prop_assert_eq!(a, b, "pop at step {} diverged", i);
                if let Some((t, _)) = a {
                    now = t.as_secs();
                }
            }
        }
        prop_assert_eq!(queue.len(), reference.pending.len(), "len at step {}", i);
        prop_assert_eq!(queue.is_empty(), reference.pending.is_empty());
    }
    // Drain: the full remaining order must agree.
    loop {
        let a = queue.pop();
        let b = reference.pop();
        prop_assert_eq!(a, b, "drain diverged");
        if a.is_none() {
            break;
        }
    }
    Ok(())
}

/// Decode `(selector, dt_raw, class_raw)` triples into ops. `selector`
/// picks pop roughly one time in three; `dt_raw` is folded into bands so
/// the script mixes same-instant pushes (dt = 0), dense clusters, pushes
/// within the hour and long gaps of hours.
fn decode(raw: &[(u8, u64, u8)]) -> Vec<Op> {
    raw.iter()
        .map(|&(sel, dt_raw, class)| {
            if sel % 3 == 0 {
                Op::Pop
            } else {
                let dt = match dt_raw % 4 {
                    0 => 0,                         // same-instant tie
                    1 => dt_raw % 8,                // dense cluster
                    2 => dt_raw % 3_000,            // within the hour
                    _ => 4_000 + (dt_raw % 20_000), // a long gap
                };
                Op::Push { dt, class }
            }
        })
        .collect()
}

/// Case count: `PROPTEST_CASES` can raise it (CI runs this file in
/// release with more cases), never lower it.
fn cases(default: u32) -> ProptestConfig {
    let raised = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    ProptestConfig::with_cases(default.max(raised))
}

proptest! {
    #![proptest_config(cases(256))]

    #[test]
    fn queue_matches_naive_reference(raw in proptest::collection::vec(
        (0u8..6, 0u64..1_000_000, 0u8..=255),
        0..300,
    )) {
        run_script(&decode(&raw))?;
    }

    #[test]
    fn queue_matches_naive_reference_on_tie_storms(raw in proptest::collection::vec(
        // Classes drawn from {FIRST, NORMAL, LAST} plus two in-between
        // values, dts from {0, 1}: nearly everything collides per instant.
        (0u8..6, 0u64..2, 0u8..5),
        0..200,
    )) {
        let ops: Vec<Op> = raw
            .iter()
            .map(|&(sel, dt, class_sel)| {
                if sel % 3 == 0 {
                    Op::Pop
                } else {
                    let class = [0u8, 64, 128, 200, 255][class_sel as usize];
                    Op::Push { dt, class }
                }
            })
            .collect();
        run_script(&ops)?;
    }
}
