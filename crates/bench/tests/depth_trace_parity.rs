//! Decision-trace parity of the reservation-depth schedulers.
//!
//! EASY, Depth(4) and Preempt(5) keep their top-`k` reservations in the
//! running profile from one event to the next and re-place only those
//! whose inputs changed. Nothing about that may show in what they decide
//! or in what they record: a job gets a `Reserve` event exactly when its
//! `(job, anchor)` pair is new, and a `Backfill` event with the hole it
//! filled. This test pins an FNV-1a digest over every JSONL line of the
//! decision trace for each kind under FCFS, SJF and XFactor on three
//! traces:
//!
//! * the CTC and SDSC paper cells (3,000 jobs, ρ = 0.9, exact estimates);
//! * a CTC cell at ρ = 2.2 with user estimates, where early completions
//!   and deep queues move the reservations at most events.
//!
//! The digests were captured from the pass that re-placed all `k`
//! reservations at every event, so any decision, anchor or trace line the
//! incremental pass changes fails here.
//!
//! Release builds only (`cargo test -p bench --release --test
//! depth_trace_parity`): in debug builds the per-pass profile checks make
//! the 27 cells take minutes.

use backfill_sim::prelude::*;

/// Large enough that no cell's trace wraps the ring.
const RECORDER_CAP: usize = 1 << 22;

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

#[test]
fn reservation_depth_traces_match_pinned_digests() {
    if cfg!(debug_assertions) {
        eprintln!("depth_trace_parity: skipped in debug builds (run with --release)");
        return;
    }
    let mut got = Vec::new();
    for (name, trace) in traces() {
        for kind in KINDS {
            for policy in Policy::PAPER {
                let rec = obs::trace::shared(RECORDER_CAP);
                simulate_observed(&trace, kind, policy, SimOptions::with_recorder(rec.clone()));
                let rec = rec.borrow();
                assert_eq!(rec.dropped(), 0, "{name} {kind:?}/{policy}: trace wrapped");
                let mut bytes = Vec::new();
                rec.write_jsonl(&mut bytes).expect("writing to a Vec");
                got.push((name, kind.label(), policy.to_string(), fnv64(&bytes)));
            }
        }
    }
    // Printed in `PINNED`'s own syntax, so a deliberate change of trace
    // format can be re-pinned from the output.
    for (name, kind, policy, digest) in &got {
        eprintln!("    (\"{name}\", \"{kind}\", \"{policy}\", {digest:#018x}),");
    }
    let mismatches: Vec<_> = got
        .iter()
        .zip(PINNED)
        .filter(|((n, k, p, d), pinned)| (*n, k.as_str(), p.as_str(), *d) != **pinned)
        .map(|((n, k, p, _), _)| format!("{n} {k}/{p}"))
        .collect();
    assert_eq!(got.len(), PINNED.len(), "the cell grid changed shape");
    assert!(
        mismatches.is_empty(),
        "decision traces diverged from the pinned digests: {mismatches:?}"
    );
}
