//! Per-event allocation budget for the simulate hot path.
//!
//! The allocation-free event path (DESIGN.md §16) claims the simulator's
//! steady state stops allocating per event: the event heap keeps its
//! capacity, the profile edits its segment chunks in place, the driver
//! hands every event the one decision buffer it clears and reuses, and
//! schedulers reuse their sort and scan scratch. This harness pins that
//! claim with a counting `#[global_allocator]`: the reservation-list family
//! (Conservative, Selective(2), Slack(0.5)) on a deep-queue cell (the
//! allocation-heaviest configuration — per-arrival reservations plus
//! compression passes) and the EASY family (EASY, Depth(4), Preempt(5))
//! and NoBF on a paper cell must stay under fixed allocations-per-event
//! and bytes-per-event budgets under each of the paper's three policies.
//! What a whole run allocates — the trace-sized vectors, container growth
//! — comes to about 0.01 allocations and 50–66 B per event on these
//! cells, so the budgets sit at 3–5× that: one allocation per start
//! (about 0.5 per event) fails them by an order of magnitude.
//!
//! The budget is enforced in **release** builds only: debug builds run
//! `debug_assert!(invariants_ok())` after every profile mutation, which
//! allocates deliberately and would swamp the measurement. CI runs this test with `--release` in
//! the perf-smoke job.

use backfill_sim::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Wraps the system allocator, counting allocations and allocated bytes
/// made by a thread while that thread has counting enabled. Deallocations
/// are not counted — the budget is about allocator traffic on the hot
/// path, and every alloc has its dealloc. The state is per thread because
/// the test harness runs tests on parallel threads: one test's setup must
/// not land in another's count.
struct CountingAlloc;

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Count one allocation of `size` bytes if this thread is counting.
fn note(size: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    if ENABLED.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.with(|n| n.set(n.get() + 1));
        BYTES.with(|n| n.set(n.get() + size as u64));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Count `(allocations, bytes)` this thread makes during `f`.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    ALLOCS.with(|n| n.set(0));
    BYTES.with(|n| n.set(0));
    ENABLED.with(|on| on.set(true));
    let out = f();
    ENABLED.with(|on| on.set(false));
    (out, ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

/// Per-event budgets, enforced in release builds. A run allocates only
/// its trace-sized vectors and amortized container growth (chunk, queue
/// and event-heap Vecs, the suspended jobs' runs): measured at most
/// 0.0103 allocs/event (Preempt(5)/XF) and 66 B/event (NoBF/FCFS) over
/// these cells. The bounds sit at about 3× and 5× that, so a per-event
/// regression (a fresh `starts` vector, a clone, a collect, a stable
/// sort's merge buffer — which cost this FCFS cell ~830 B/event while
/// compression passes re-sorted the queue) fails them.
const ALLOCS_PER_EVENT: f64 = 0.03;
const BYTES_PER_EVENT: f64 = 350.0;

/// Simulate one cell under the counting allocator and hold it to the
/// per-event budgets (release builds only).
fn assert_within_budget(trace: &Trace, kind: SchedulerKind, policy: Policy) {
    let ((schedule, fingerprint), allocs, bytes) = counted(|| {
        let s = simulate(trace, kind, policy);
        let fp = s.fingerprint();
        (s, fp)
    });
    let label = format!("{}/{policy}", kind.label());
    let events = schedule.events.max(1);
    let per_event = allocs as f64 / events as f64;
    let bytes_per_event = bytes as f64 / events as f64;
    eprintln!(
        "alloc budget {label}: {allocs} allocations / {events} events = \
         {per_event:.4} allocs/event ({bytes_per_event:.0} B/event), \
         fingerprint {fingerprint:#018x}"
    );

    // Sanity in every build: the run did real work and the counter saw it.
    assert!(schedule.outcomes.len() == trace.len());
    assert!(allocs > 0, "counting allocator observed nothing");

    if cfg!(debug_assertions) {
        // Debug builds allocate inside debug_assert-guarded invariant
        // checks; the pinned budget would measure those, not the hot
        // path. The release CI run enforces it.
        return;
    }
    assert!(
        per_event <= ALLOCS_PER_EVENT,
        "{label}: allocation budget blown: {per_event:.4} allocs/event > \
         {ALLOCS_PER_EVENT} ({allocs} allocs over {events} events)"
    );
    assert!(
        bytes_per_event <= BYTES_PER_EVENT,
        "{label}: byte budget blown: {bytes_per_event:.0} B/event > \
         {BYTES_PER_EVENT} ({bytes} bytes over {events} events)"
    );
}

#[test]
fn deep_queue_conservative_stays_under_allocation_budget() {
    // The BENCH deep-queue scenario at reduced size: queue depth still
    // climbs into the hundreds, so compression passes and reservation
    // churn dominate exactly as in the full cell.
    let scenario = Scenario {
        source: TraceSource::Ctc {
            jobs: 3_000,
            seed: 7,
        },
        estimate: EstimateModel::User(UserModelParams::capped(SimSpan::from_hours(18))),
        estimate_seed: 7,
        load: Some(2.2),
    };
    let trace = scenario.materialize();
    // Selective and slack run on the same reservation list, with their
    // own unreserved queue and per-event start-now pass respectively.
    for kind in [
        SchedulerKind::Conservative,
        SchedulerKind::Selective { threshold: 2.0 },
        SchedulerKind::Slack { slack_factor: 0.5 },
    ] {
        for policy in Policy::PAPER {
            assert_within_budget(&trace, kind, policy);
        }
    }
}

/// The EASY family — EASY, deeper reservation depths and EASY with
/// preemption — runs one backfill pass per event whose reservations live
/// in the scheduler's running profile for the length of the pass, so no
/// event clones a profile. The BENCH paper cell: 3,000 CTC jobs at
/// ρ = 0.9 with exact estimates.
#[test]
fn easy_family_stays_under_allocation_budget() {
    let trace = Scenario::high_load(TraceSource::Ctc {
        jobs: 3_000,
        seed: 7,
    })
    .materialize();
    for kind in [
        SchedulerKind::Easy,
        SchedulerKind::Depth { depth: 4 },
        SchedulerKind::Preemptive { threshold: 5.0 },
    ] {
        for policy in Policy::PAPER {
            assert_within_budget(&trace, kind, policy);
        }
    }
}

/// NoBF on the same paper cell: its queues run deep at ρ = 0.9, and it
/// answers in the driver's decision buffer like every other kind, so its
/// events allocate no more than theirs.
#[test]
fn no_backfill_stays_under_allocation_budget() {
    let trace = Scenario::high_load(TraceSource::Ctc {
        jobs: 3_000,
        seed: 7,
    })
    .materialize();
    for policy in Policy::PAPER {
        assert_within_budget(&trace, SchedulerKind::NoBackfill, policy);
    }
}
