//! Differential tests for the certificate-ordered job list: under
//! arbitrary interleavings of arrivals, re-queued jobs, dequeues,
//! mid-queue removals and the passage of time, [`SchedQueue`] must present
//! exactly the order a full [`Policy::sort`] of the same jobs would — for
//! every policy, at every observation instant.
//!
//! The draws are adversarial for the XFactor certificates: zero, one and
//! equal estimates (pairs that tie or never cross), simultaneous arrivals,
//! a coarse clock that lets many pairs cross between two passes, and
//! re-queued jobs whose waits or estimates pass 2³² s (the 128-bit
//! certificate division) or 2⁶² s (flip instants past `u64::MAX`, clamped
//! to "never").
//!
//! Two usage patterns are covered: a wait queue ordered before every read
//! (EASY, Depth, Preempt, the no-backfill scheduler), and the conservative
//! reservation list, which is read in stored order between its ordering
//! passes and must match `Policy::sort` after each pass. Long sequences
//! grow the list across many of the queue's blocks and remove entries on
//! both sides of block edges, so splits, merges and crossings between
//! blocks all occur.

use proptest::prelude::*;
use sched::queue::Queued;
use sched::{JobMeta, Policy, SchedQueue};
use simcore::{JobId, SimSpan, SimTime};
use std::cell::Cell;

const POLICIES: [Policy; 5] = [
    Policy::Fcfs,
    Policy::Sjf,
    Policy::Ljf,
    Policy::WidestFirst,
    Policy::XFactor,
];

/// One step of queue churn, as seen by a scheduler's event loop.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// A job arrives now and is pushed.
    Arrive { estimate: u64, width: u32 },
    /// A job that arrived `age` seconds ago re-enters the queue, as a
    /// preempted job does with its original arrival.
    Requeue { age: u64, estimate: u64 },
    /// The head job starts: pop the front.
    PopFront,
    /// A mid-queue job starts via backfill (or leaves): remove index
    /// `slot % len`.
    Remove { slot: usize },
    /// The clock moves on by `secs` (zero: the next arrival is
    /// simultaneous).
    Advance { secs: u64 },
}

/// Estimates: zero, one, a few shared values, the usual spread, and the
/// huge values that take the wide certificate paths.
fn estimate(which: u8, raw: u64) -> u64 {
    match which {
        0 => 0,
        1 => 1,
        2 => [60, 3_600, 14_400][raw as usize % 3],
        3 => 1 << (32 + raw % 9),
        4 => (1 << 62) + raw % 4,
        _ => 1 + raw % 50_000,
    }
}

/// Clock steps: none, a second, a minute, or whole hours — a coarse grid
/// on which several pairs cross between two passes.
fn step(which: u8, raw: u64) -> u64 {
    match which % 4 {
        0 => 0,
        1 => 1,
        2 => 60,
        _ => 3_600 * (1 + raw % 24),
    }
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    // Arrivals outweigh removals so queues grow deep enough to cross.
    let op = (0u8..12, 0u8..12, 0u64..u64::MAX, 1u32..=64, 0usize..64).prop_map(
        |(which, kind, raw, width, slot)| match which {
            0..=4 => Op::Arrive {
                estimate: estimate(kind, raw),
                width,
            },
            5 => Op::Requeue {
                age: raw >> (raw % 40),
                estimate: estimate(kind, raw >> 7),
            },
            6 => Op::PopFront,
            7 => Op::Remove { slot },
            _ => Op::Advance {
                secs: step(kind, raw),
            },
        },
    );
    proptest::collection::vec(op, 1..120)
}

/// Where the clock starts: at zero, or late enough that re-queued jobs
/// can carry waits past 2³² s.
fn arb_origin() -> impl Strategy<Value = u64> {
    (0u8..2).prop_map(|far| if far == 1 { 1 << 40 } else { 0 })
}

/// The job an arrival-type op pushes, if it is one.
fn job_of(op: Op, id: u32, now: SimTime) -> Option<JobMeta> {
    let (arrival, estimate, width) = match op {
        Op::Arrive { estimate, width } => (now, estimate, width),
        Op::Requeue { age, estimate } => {
            (SimTime::new(now.as_secs().saturating_sub(age)), estimate, 1)
        }
        _ => return None,
    };
    Some(JobMeta {
        id: JobId(id),
        arrival,
        estimate: SimSpan::new(estimate),
        width,
    })
}

/// The reference: the queue's jobs under the policy's full sort at `now`.
fn reference_order<T: Queued>(queue: &SchedQueue<T>, now: SimTime) -> Vec<JobId> {
    let mut jobs: Vec<JobMeta> = queue.iter().map(|e| *e.job()).collect();
    queue.policy().sort(&mut jobs, now);
    jobs.into_iter().map(|j| j.id).collect()
}

fn observed_order(queue: &mut SchedQueue, now: SimTime) -> Vec<JobId> {
    queue.prepare(now);
    queue.iter().map(|j| j.id).collect()
}

/// A reservation-list entry: the job plus a payload the list carries.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Reservation {
    meta: JobMeta,
    start: SimTime,
}

impl Queued for Reservation {
    fn job(&self) -> &JobMeta {
        &self.meta
    }

    fn due(&self) -> SimTime {
        self.start
    }
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
    #![proptest_config(cases(128))]

    /// Drive the same op sequence through the maintained queue and the
    /// sort-everything reference; the visible order must match at every
    /// step, as time advances (which changes XFactor ranks).
    #[test]
    fn incremental_queue_matches_policy_sort(ops in arb_ops(), origin in arb_origin()) {
        for policy in POLICIES {
            let mut queue = SchedQueue::new(policy);
            let mut now = SimTime::new(origin);
            for (step, &op) in ops.iter().enumerate() {
                match op {
                    Op::Arrive { .. } | Op::Requeue { .. } => {
                        queue.push(job_of(op, step as u32, now).expect("arrival op"));
                    }
                    Op::PopFront => {
                        queue.prepare(now);
                        let expect = reference_order(&queue, now);
                        let popped = queue.pop_front().map(|j| j.id);
                        prop_assert_eq!(popped, expect.first().copied(), "{policy} head");
                    }
                    Op::Remove { slot } => {
                        if !queue.is_empty() {
                            queue.prepare(now);
                            queue.remove(slot % queue.len());
                        }
                    }
                    Op::Advance { secs } => now += SimSpan::new(secs),
                }
                prop_assert_eq!(
                    observed_order(&mut queue, now),
                    reference_order(&queue, now),
                    "{} diverged after step {} at {}",
                    policy,
                    step,
                    now
                );
            }
            // Drain fully: pop order is the reference order to the end.
            queue.prepare(now);
            let expect = reference_order(&queue, now);
            let mut drained = Vec::new();
            while let Some(job) = queue.pop_front() {
                drained.push(job.id);
            }
            prop_assert_eq!(drained, expect, "{} drain order", policy);
        }
    }

    /// The conservative reservation list's pattern: appends and removals
    /// between ordering passes, which run only now and then. Between
    /// passes the list must keep its stored order (the last pass's order,
    /// less the removed entries, plus the appended ones at the back); after
    /// every pass it must equal `Policy::sort` at that instant.
    #[test]
    fn reservation_list_matches_policy_sort_after_every_pass(
        ops in arb_ops(),
        origin in arb_origin(),
    ) {
        for policy in POLICIES {
            let mut list: SchedQueue<Reservation> = SchedQueue::new(policy);
            let mut stored: Vec<Reservation> = Vec::new();
            let mut now = SimTime::new(origin);
            for (step, &op) in ops.iter().enumerate() {
                match op {
                    Op::Arrive { .. } | Op::Requeue { .. } => {
                        let meta = job_of(op, step as u32, now).expect("arrival op");
                        let entry = Reservation { meta, start: now + meta.estimate };
                        list.push(entry);
                        stored.push(entry);
                    }
                    Op::Remove { slot } if !stored.is_empty() => {
                        let i = slot % stored.len();
                        prop_assert_eq!(list.remove(i), stored.remove(i));
                    }
                    // A compression pass: order the list, then move one
                    // reservation, as a compressed job's start moves.
                    Op::PopFront => {
                        list.prepare(now);
                        stored.sort_by(|a, b| policy.compare(&a.meta, &b.meta, now));
                        if let Some(first) = stored.first_mut() {
                            first.start = now;
                            list.update(0, |r| r.start = now);
                        }
                        prop_assert_eq!(
                            list.iter().map(|r| r.meta.id).collect::<Vec<_>>(),
                            reference_order(&list, now),
                            "{} pass at {} diverged from Policy::sort",
                            policy,
                            now
                        );
                    }
                    Op::Remove { .. } => {}
                    Op::Advance { secs } => now += SimSpan::new(secs),
                }
                prop_assert_eq!(
                    list.to_vec(),
                    stored.clone(),
                    "{} stored order diverged after step {}",
                    policy,
                    step
                );
            }
        }
    }

    /// Re-observing at the same instant (no pushes in between) must not
    /// change the order.
    #[test]
    fn same_instant_reobservation_is_stable(ops in arb_ops(), origin in arb_origin()) {
        let mut queue = SchedQueue::new(Policy::XFactor);
        let mut now = SimTime::new(origin);
        for (step, &op) in ops.iter().enumerate() {
            match op {
                Op::Advance { secs } => now += SimSpan::new(secs),
                _ => {
                    if let Some(job) = job_of(op, step as u32, now) {
                        queue.push(job);
                    }
                }
            }
            let first = observed_order(&mut queue, now);
            let second = observed_order(&mut queue, now);
            prop_assert_eq!(first, second, "same-instant order drifted");
        }
    }
}

/// One step of the long-queue churn: the usual ops, plus removals at a
/// block edge and lowered due instants anywhere.
#[derive(Debug, Clone, Copy)]
enum EdgeOp {
    Plain(Op),
    /// Remove next to the boundary after block `edge % blocks`: its last
    /// entry (`side` 0), the next block's first (1) or second (2).
    RemoveAtEdge {
        edge: usize,
        side: usize,
    },
    /// Lower the start of entry `slot % len` by `by` seconds.
    Lower {
        slot: usize,
        by: u64,
    },
}

/// Long, arrival-heavy sequences: queues grow past several blocks, split
/// full blocks, empty and merge them, and carry XFactor crossings across
/// their edges.
fn arb_long_ops() -> impl Strategy<Value = Vec<EdgeOp>> {
    let op = (0u8..16, 0u8..12, 0u64..u64::MAX, 1u32..=64, 0usize..256).prop_map(
        |(which, kind, raw, width, slot)| match which {
            0..=6 => EdgeOp::Plain(Op::Arrive {
                // No huge estimates: they would stall the crossings.
                estimate: estimate(kind % 3, raw) + raw % 7_200,
                width,
            }),
            7 => EdgeOp::Plain(Op::PopFront),
            8 => EdgeOp::Plain(Op::Remove { slot }),
            9 | 10 => EdgeOp::RemoveAtEdge {
                edge: slot,
                side: (raw % 3) as usize,
            },
            11 => EdgeOp::Lower {
                slot,
                by: raw % 5_000,
            },
            _ => EdgeOp::Plain(Op::Advance {
                secs: step(kind, raw),
            }),
        },
    );
    proptest::collection::vec(op, 500..1200)
}

/// The index of the entry `side` places past the end of block
/// `edge % blocks`, if the queue has one there.
fn edge_index<T: Queued>(queue: &SchedQueue<T>, edge: usize, side: usize) -> Option<usize> {
    let lens: Vec<usize> = queue.block_lens().collect();
    let end: usize = lens.iter().take(edge % lens.len().max(1) + 1).sum();
    (end + side).checked_sub(1).filter(|&i| i < queue.len())
}

/// The reservation-list pattern on long queues: the list spans many
/// blocks, entries leave from both sides of block edges, starts are
/// lowered anywhere, and every eighth step and the final drain must match
/// `Policy::sort` (debug builds also check each block's summaries after
/// every mutation). The run reports how many sequences spanned three
/// blocks or more, and fails if none did.
#[test]
fn long_queues_keep_order_across_block_edges() {
    let spanned = Cell::new(0);
    proptest::run_cases(
        cases(24),
        "long_queues_keep_order_across_block_edges",
        |rng| {
            let ops = arb_long_ops().generate(rng);
            let origin = arb_origin().generate(rng);
            for policy in POLICIES {
                if long_queue_pass(&ops, origin, policy)? >= 3 {
                    spanned.set(spanned.get() + 1);
                }
            }
            Ok(())
        },
    );
    eprintln!(
        "long queues: {} sequence runs spanned three blocks or more",
        spanned.get()
    );
    assert!(spanned.get() > 0, "no sequence spanned three blocks");
}

/// One policy's run of [`long_queues_keep_order_across_block_edges`];
/// returns the most blocks the list spanned.
fn long_queue_pass(ops: &[EdgeOp], origin: u64, policy: Policy) -> Result<usize, TestCaseError> {
    let mut list: SchedQueue<Reservation> = SchedQueue::new(policy);
    let mut now = SimTime::new(origin);
    let mut deepest = 0;
    for (step, &op) in ops.iter().enumerate() {
        match op {
            EdgeOp::Plain(op @ (Op::Arrive { .. } | Op::Requeue { .. })) => {
                let meta = job_of(op, step as u32, now).expect("arrival op");
                list.push(Reservation {
                    meta,
                    start: now + meta.estimate,
                });
            }
            EdgeOp::Plain(Op::PopFront) => {
                list.prepare(now);
                let expect = reference_order(&list, now);
                let popped = list.pop_front().map(|r| r.meta.id);
                prop_assert_eq!(popped, expect.first().copied(), "{} head", policy);
            }
            EdgeOp::Plain(Op::Remove { slot }) if !list.is_empty() => {
                list.remove(slot % list.len());
            }
            EdgeOp::RemoveAtEdge { edge, side } => {
                if let Some(i) = edge_index(&list, edge, side) {
                    list.remove(i);
                }
            }
            EdgeOp::Lower { slot, by } if !list.is_empty() => {
                list.update(slot % list.len(), |r| {
                    r.start = SimTime::new(r.start.as_secs().saturating_sub(by));
                });
            }
            EdgeOp::Plain(Op::Advance { secs }) => now += SimSpan::new(secs),
            _ => {}
        }
        deepest = deepest.max(list.block_lens().count());
        if step % 8 == 0 {
            list.prepare(now);
            prop_assert_eq!(
                list.iter().map(|r| r.meta.id).collect::<Vec<_>>(),
                reference_order(&list, now),
                "{} diverged after step {} at {}",
                policy,
                step,
                now
            );
        }
    }
    list.prepare(now);
    let expect = reference_order(&list, now);
    let mut drained = Vec::new();
    while let Some(r) = list.pop_front() {
        drained.push(r.meta.id);
    }
    prop_assert_eq!(drained, expect, "{} drain order", policy);
    Ok(deepest)
}

/// A deep XFactor queue on an hourly clock: many pairs cross between two
/// passes, and some pass re-places three or more jobs at one instant.
#[test]
fn deep_queue_on_a_coarse_clock_replays_every_crossing() {
    let mut queue = SchedQueue::new(Policy::XFactor);
    let mut now = SimTime::ZERO;
    let mut most_moves = 0;
    for id in 0..300u32 {
        let h = u64::from(id).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
        queue.push(JobMeta {
            id: JobId(id),
            arrival: now,
            estimate: SimSpan::new(1 + h % 20_000),
            width: 1,
        });
        if id % 3 == 0 {
            now += SimSpan::new(3_600);
        }
        if id % 7 == 0 && !queue.is_empty() {
            queue.prepare(now);
            queue.remove(usize::try_from(h).unwrap() % queue.len());
        }
        let before = queue.counters().moves;
        queue.prepare(now);
        most_moves = most_moves.max(queue.counters().moves - before);
        assert_eq!(
            queue.iter().map(|j| j.id).collect::<Vec<_>>(),
            reference_order(&queue, now),
            "diverged at {now}"
        );
    }
    assert!(
        most_moves >= 3,
        "no pass crossed three pairs (most: {most_moves})"
    );
}
