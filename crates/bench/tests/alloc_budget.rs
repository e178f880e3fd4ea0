//! Per-event allocation budget for the simulate hot path.
//!
//! The allocation-free event path (DESIGN.md §16) claims the simulator's
//! steady state stops allocating per event: the ladder event queue reuses
//! buckets, the profile's slab recycles slots, and schedulers reuse their
//! `starts`/sort scratch buffers across events. This harness pins that
//! claim with a counting `#[global_allocator]`: a deep-queue Conservative
//! cell (the allocation-heaviest configuration — per-arrival reservations
//! plus compression passes) must stay under fixed allocations-per-event
//! and bytes-per-event budgets under each of the paper's three policies.
//!
//! The budget is enforced in **release** builds only: debug builds run
//! `debug_assert!(invariants_ok())` after every profile mutation and the
//! EASY differential profile rebuild, both of which allocate deliberately
//! and would swamp the measurement. CI runs this test with `--release` in
//! the perf-smoke job.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Wraps the system allocator, counting allocations and allocated bytes
/// while enabled. Deallocations are not counted — the budget is about
/// allocator traffic on the hot path, and every alloc has its dealloc.
struct CountingAlloc;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Count `(allocations, bytes)` during `f`.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    ALLOCS.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
    let out = f();
    ENABLED.store(false, Ordering::Relaxed);
    (
        out,
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

/// Per-event budgets, enforced in release builds. The steady-state event
/// path allocates only for amortized container growth (slab/order/queue/
/// ladder-bucket Vecs): measured 0.03 allocs/event and about 80 B/event
/// on each of these cells. The bounds leave headroom for allocator-pattern
/// drift without letting a per-event regression (a clone, a collect, a
/// fresh scratch, a stable sort's merge buffer — which cost this FCFS cell
/// ~830 B/event while compression passes re-sorted the queue) back in.
const ALLOCS_PER_EVENT: f64 = 4.0;
const BYTES_PER_EVENT: f64 = 512.0;

#[test]
fn deep_queue_conservative_stays_under_allocation_budget() {
    use backfill_sim::prelude::*;

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

    for policy in Policy::PAPER {
        let ((schedule, fingerprint), allocs, bytes) = counted(|| {
            let s = simulate(&trace, SchedulerKind::Conservative, policy);
            let fp = s.fingerprint();
            (s, fp)
        });
        let events = schedule.events.max(1);
        let per_event = allocs as f64 / events as f64;
        let bytes_per_event = bytes as f64 / events as f64;
        eprintln!(
            "alloc budget {policy}: {allocs} allocations / {events} events = \
             {per_event:.2} allocs/event ({bytes_per_event:.0} B/event), \
             fingerprint {fingerprint:#018x}"
        );

        // Sanity in every build: the run did real work and the counter saw it.
        assert!(schedule.outcomes.len() == 3_000);
        assert!(allocs > 0, "counting allocator observed nothing");

        if cfg!(debug_assertions) {
            // Debug builds allocate inside debug_assert-guarded
            // differential checks; the pinned budget would measure those,
            // not the hot path. The release CI run enforces it.
            continue;
        }
        assert!(
            per_event <= ALLOCS_PER_EVENT,
            "{policy}: allocation budget blown: {per_event:.2} allocs/event > \
             {ALLOCS_PER_EVENT} ({allocs} allocs over {events} events)"
        );
        assert!(
            bytes_per_event <= BYTES_PER_EVENT,
            "{policy}: byte budget blown: {bytes_per_event:.0} B/event > \
             {BYTES_PER_EVENT} ({bytes} bytes over {events} events)"
        );
    }
}
