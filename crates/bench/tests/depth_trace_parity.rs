//! Decision-trace parity of the reservation-depth and reservation-list
//! schedulers.
//!
//! EASY, Depth(4) and Preempt(5) keep their top-`k` reservations in the
//! running profile from one event to the next and re-place only those
//! whose inputs changed. Nothing about that may show in what they decide
//! or in what they record: a job gets a `Reserve` event exactly when its
//! `(job, anchor)` pair is new, and a `Backfill` event with the hole it
//! filled. The reservation-list kinds (Cons under each compression mode,
//! Sel(2) and Slack(0.5)) reject start-now candidates without a profile
//! probe when the candidate is wider than the free level or its window
//! runs past the profile's first zero-capacity instant; that may not show
//! either, in any `Reserve`, `Compress` or `Backfill` line.
//!
//! Both tests pin an FNV-1a digest over every JSONL line of the decision
//! trace for each kind under FCFS, SJF and XFactor on three traces:
//!
//! * the CTC and SDSC paper cells (3,000 jobs, ρ = 0.9, exact estimates);
//! * a CTC cell at ρ = 2.2 with user estimates, where early completions
//!   and deep queues move the reservations at most events.
//!
//! The reservation-depth digests were captured from the pass that
//! re-placed all `k` reservations at every event, and the reservation-list
//! digests from the scans that probed every candidate wide enough for the
//! free level, so any decision, anchor or trace line the faster passes
//! change fails here.
//!
//! Release builds only (`cargo test -p bench --release --test
//! depth_trace_parity`): in debug builds the profile's invariant checks,
//! run after every mutation, make the 81 cells take minutes.

use backfill_sim::prelude::*;
use obs::trace::Recorder;
use std::cell::RefCell;
use std::rc::Rc;

/// FNV-1a 64 over `bytes`.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn traces() -> [(&'static str, Trace); 3] {
    let deep = Scenario {
        source: TraceSource::Ctc {
            jobs: 3_000,
            seed: 7,
        },
        estimate: EstimateModel::User(UserModelParams::capped(SimSpan::from_hours(18))),
        estimate_seed: 7,
        load: Some(2.2),
    };
    [
        (
            "ctc-0.9",
            Scenario::high_load(TraceSource::Ctc {
                jobs: 3_000,
                seed: 7,
            })
            .materialize(),
        ),
        (
            "sdsc-0.9",
            Scenario::high_load(TraceSource::Sdsc {
                jobs: 3_000,
                seed: 7,
            })
            .materialize(),
        ),
        ("ctc-2.2-user", deep.materialize()),
    ]
}

const KINDS: [SchedulerKind; 3] = [
    SchedulerKind::Easy,
    SchedulerKind::Depth { depth: 4 },
    SchedulerKind::Preemptive { threshold: 5.0 },
];

/// `(trace, kind, policy, digest)`, in [`traces`] × [`KINDS`] ×
/// [`Policy::PAPER`] order.
const PINNED: &[(&str, &str, &str, u64)] = &[
    ("ctc-0.9", "EASY", "FCFS", 0xdcee740ae00daf9f),
    ("ctc-0.9", "EASY", "SJF", 0x9cdaf02e1d66b565),
    ("ctc-0.9", "EASY", "XF", 0xc1e16cd882b206e1),
    ("ctc-0.9", "Depth(4)", "FCFS", 0xd9ef0978dbba4983),
    ("ctc-0.9", "Depth(4)", "SJF", 0xbe4409cbb6270ba1),
    ("ctc-0.9", "Depth(4)", "XF", 0xdec9a57fe8a9c421),
    ("ctc-0.9", "Preempt(5)", "FCFS", 0x2166c273239ac514),
    ("ctc-0.9", "Preempt(5)", "SJF", 0x2089ec887dbfdc5c),
    ("ctc-0.9", "Preempt(5)", "XF", 0xbdf3afc9ecf65b95),
    ("sdsc-0.9", "EASY", "FCFS", 0x141404417451bf76),
    ("sdsc-0.9", "EASY", "SJF", 0x8cf1c65ac0a2098e),
    ("sdsc-0.9", "EASY", "XF", 0xff522b965bc87240),
    ("sdsc-0.9", "Depth(4)", "FCFS", 0xc5d501c8116e881b),
    ("sdsc-0.9", "Depth(4)", "SJF", 0xa873f8668170fb47),
    ("sdsc-0.9", "Depth(4)", "XF", 0x73c922e9dfe50cc4),
    ("sdsc-0.9", "Preempt(5)", "FCFS", 0xc294453a956d86a1),
    ("sdsc-0.9", "Preempt(5)", "SJF", 0x88e4a9f866b70ba3),
    ("sdsc-0.9", "Preempt(5)", "XF", 0xb81fe70eb250be82),
    ("ctc-2.2-user", "EASY", "FCFS", 0x75b6bd95106867bd),
    ("ctc-2.2-user", "EASY", "SJF", 0x3922f13c10d34299),
    ("ctc-2.2-user", "EASY", "XF", 0xd7d37de1dbe02023),
    ("ctc-2.2-user", "Depth(4)", "FCFS", 0x6b9e8f91ddbe3d1d),
    ("ctc-2.2-user", "Depth(4)", "SJF", 0xc0930c29c44ae8dd),
    ("ctc-2.2-user", "Depth(4)", "XF", 0x454f20a4fd077b42),
    ("ctc-2.2-user", "Preempt(5)", "FCFS", 0x546a1ac975734269),
    ("ctc-2.2-user", "Preempt(5)", "SJF", 0x815c72d80b958494),
    ("ctc-2.2-user", "Preempt(5)", "XF", 0x0ba7392f07f6ee75),
];

/// The digest of every [`traces`] × `kinds` × [`Policy::PAPER`] cell,
/// compared with `pinned` (printed in its own syntax first, so a
/// deliberate change of trace format can be re-pinned from the output).
fn check_digests(kinds: &[SchedulerKind], pinned: &[(&str, &str, &str, u64)]) {
    if cfg!(debug_assertions) {
        eprintln!("depth_trace_parity: skipped in debug builds (run with --release)");
        return;
    }
    let mut got = Vec::new();
    for (name, trace) in traces() {
        for &kind in kinds {
            for policy in Policy::PAPER {
                let rec = Rc::new(RefCell::new(Recorder::new(Vec::new())));
                simulate_observed(&trace, kind, policy, SimOptions::with_recorder(rec.clone()));
                let digest = fnv64(rec.borrow().sink());
                got.push((name, kind.label(), policy.to_string(), digest));
            }
        }
    }
    for (name, kind, policy, digest) in &got {
        eprintln!("    (\"{name}\", \"{kind}\", \"{policy}\", {digest:#018x}),");
    }
    let mismatches: Vec<_> = got
        .iter()
        .zip(pinned)
        .filter(|((n, k, p, d), pinned)| (*n, k.as_str(), p.as_str(), *d) != **pinned)
        .map(|((n, k, p, _), _)| format!("{n} {k}/{p}"))
        .collect();
    assert_eq!(got.len(), pinned.len(), "the cell grid changed shape");
    assert!(
        mismatches.is_empty(),
        "decision traces diverged from the pinned digests: {mismatches:?}"
    );
}

#[test]
fn reservation_depth_traces_match_pinned_digests() {
    check_digests(&KINDS, PINNED);
}

/// The reservation-list kinds: Cons under its four compression modes,
/// then selective and slack-based backfilling.
const LIST_KINDS: [SchedulerKind; 6] = [
    SchedulerKind::Conservative,
    SchedulerKind::ConservativeReanchor,
    SchedulerKind::ConservativeHeadStart,
    SchedulerKind::ConservativeNoCompress,
    SchedulerKind::Selective { threshold: 2.0 },
    SchedulerKind::Slack { slack_factor: 0.5 },
];

/// `(trace, kind, policy, digest)`, in [`traces`] × [`LIST_KINDS`] ×
/// [`Policy::PAPER`] order.
const LIST_PINNED: &[(&str, &str, &str, u64)] = &[
    ("ctc-0.9", "Cons", "FCFS", 0xf99b5a1c98fc7ae0),
    ("ctc-0.9", "Cons", "SJF", 0xf99b5a1c98fc7ae0),
    ("ctc-0.9", "Cons", "XF", 0xf99b5a1c98fc7ae0),
    ("ctc-0.9", "Cons(re)", "FCFS", 0xf99b5a1c98fc7ae0),
    ("ctc-0.9", "Cons(re)", "SJF", 0xf99b5a1c98fc7ae0),
    ("ctc-0.9", "Cons(re)", "XF", 0xf99b5a1c98fc7ae0),
    ("ctc-0.9", "Cons(hs)", "FCFS", 0xf99b5a1c98fc7ae0),
    ("ctc-0.9", "Cons(hs)", "SJF", 0xf99b5a1c98fc7ae0),
    ("ctc-0.9", "Cons(hs)", "XF", 0xf99b5a1c98fc7ae0),
    ("ctc-0.9", "Cons(no)", "FCFS", 0xf99b5a1c98fc7ae0),
    ("ctc-0.9", "Cons(no)", "SJF", 0xf99b5a1c98fc7ae0),
    ("ctc-0.9", "Cons(no)", "XF", 0xf99b5a1c98fc7ae0),
    ("ctc-0.9", "Sel(2)", "FCFS", 0x4f12ab23fc5d3827),
    ("ctc-0.9", "Sel(2)", "SJF", 0x248632f82b92ef4d),
    ("ctc-0.9", "Sel(2)", "XF", 0x6a42634d738efb66),
    ("ctc-0.9", "Slack(0.5)", "FCFS", 0xc6d233f421cebe96),
    ("ctc-0.9", "Slack(0.5)", "SJF", 0xbb00bd21830bb8ea),
    ("ctc-0.9", "Slack(0.5)", "XF", 0x4db34ea377be361b),
    ("sdsc-0.9", "Cons", "FCFS", 0xea36d0b5851cc451),
    ("sdsc-0.9", "Cons", "SJF", 0xea36d0b5851cc451),
    ("sdsc-0.9", "Cons", "XF", 0xea36d0b5851cc451),
    ("sdsc-0.9", "Cons(re)", "FCFS", 0xea36d0b5851cc451),
    ("sdsc-0.9", "Cons(re)", "SJF", 0xea36d0b5851cc451),
    ("sdsc-0.9", "Cons(re)", "XF", 0xea36d0b5851cc451),
    ("sdsc-0.9", "Cons(hs)", "FCFS", 0xea36d0b5851cc451),
    ("sdsc-0.9", "Cons(hs)", "SJF", 0xea36d0b5851cc451),
    ("sdsc-0.9", "Cons(hs)", "XF", 0xea36d0b5851cc451),
    ("sdsc-0.9", "Cons(no)", "FCFS", 0xea36d0b5851cc451),
    ("sdsc-0.9", "Cons(no)", "SJF", 0xea36d0b5851cc451),
    ("sdsc-0.9", "Cons(no)", "XF", 0xea36d0b5851cc451),
    ("sdsc-0.9", "Sel(2)", "FCFS", 0x8c906889037d88b0),
    ("sdsc-0.9", "Sel(2)", "SJF", 0x7a5b838c4f0a1c18),
    ("sdsc-0.9", "Sel(2)", "XF", 0x30e1b5edb5b70cea),
    ("sdsc-0.9", "Slack(0.5)", "FCFS", 0xd3c3fc4a9954f30d),
    ("sdsc-0.9", "Slack(0.5)", "SJF", 0x75594462cf283d40),
    ("sdsc-0.9", "Slack(0.5)", "XF", 0x0e813763320586bb),
    ("ctc-2.2-user", "Cons", "FCFS", 0x8d1dd6b5dde88c04),
    ("ctc-2.2-user", "Cons", "SJF", 0xce1c327061c6f5be),
    ("ctc-2.2-user", "Cons", "XF", 0x54f19f294313e23a),
    ("ctc-2.2-user", "Cons(re)", "FCFS", 0x2f1ed0806a41d7e1),
    ("ctc-2.2-user", "Cons(re)", "SJF", 0x094160161c3f9c35),
    ("ctc-2.2-user", "Cons(re)", "XF", 0xe2cf20e0a31817d6),
    ("ctc-2.2-user", "Cons(hs)", "FCFS", 0x7799f92e2037b086),
    ("ctc-2.2-user", "Cons(hs)", "SJF", 0xbbdcfcf163c297a7),
    ("ctc-2.2-user", "Cons(hs)", "XF", 0xbb331c42125492fc),
    ("ctc-2.2-user", "Cons(no)", "FCFS", 0x918e282385a988a3),
    ("ctc-2.2-user", "Cons(no)", "SJF", 0x918e282385a988a3),
    ("ctc-2.2-user", "Cons(no)", "XF", 0x918e282385a988a3),
    ("ctc-2.2-user", "Sel(2)", "FCFS", 0x5bc93e8b4291009f),
    ("ctc-2.2-user", "Sel(2)", "SJF", 0x460c2c8f73e7d32d),
    ("ctc-2.2-user", "Sel(2)", "XF", 0xd51c564282f45237),
    ("ctc-2.2-user", "Slack(0.5)", "FCFS", 0xcf59f43ba86b9338),
    ("ctc-2.2-user", "Slack(0.5)", "SJF", 0xbd61caa600d2b49e),
    ("ctc-2.2-user", "Slack(0.5)", "XF", 0x24444d03d49cfda9),
];

#[test]
fn reservation_list_traces_match_pinned_digests() {
    check_digests(&LIST_KINDS, LIST_PINNED);
}
