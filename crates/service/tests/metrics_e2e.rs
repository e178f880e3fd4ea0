//! Metrics-verb and stats-invariant coverage for the daemon.
//!
//! Two properties pinned here:
//!
//! 1. `Request::Metrics` answers with one canonical-JSON registry
//!    snapshot covering the service shell (submit counters, pool,
//!    cache) *and* the sim core (profile-index counters flushed per
//!    completed run).
//! 2. The `Stats` snapshot never violates the accounting invariant
//!    `submitted >= completed + failed + in_flight` while submits are
//!    racing the probe — the regression the worker-pool decrement
//!    reorder and the documented snapshot read order exist to prevent.

use backfill_sim::{RunConfig, Scenario, SchedulerKind, TraceSource};
use sched::Policy;
use service::{Client, Server, ServiceConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

fn config(seed: u64) -> RunConfig {
    RunConfig {
        scenario: Scenario::high_load(TraceSource::Ctc { jobs: 120, seed }),
        kind: SchedulerKind::Conservative,
        policy: Policy::Sjf,
    }
}

#[test]
fn metrics_verb_answers_one_canonical_snapshot() {
    let handle = Server::start(
        "127.0.0.1:0",
        ServiceConfig {
            workers: 2,
            queue_cap: 2,
            ..ServiceConfig::default()
        },
    )
    .expect("start daemon");
    let addr = handle.addr();

    let mut client = Client::connect(addr).expect("connect");
    // One fresh run and one cache replay, so every counter family has
    // something to show.
    client.submit(&config(3)).expect("fresh run");
    client.submit(&config(3)).expect("cache hit");

    let json = client.metrics().expect("metrics verb");
    // Canonical form: no whitespace, sorted top-level sections.
    assert!(!json.contains(' '), "canonical JSON has no whitespace");
    assert!(json.starts_with(r#"{"counters":{"#));

    // Service shell counters.
    for key in [
        r#""service.submitted":2"#,
        r#""service.completed":2"#,
        r#""service.cache.hits":1"#,
        r#""service.cache.misses":1"#,
        r#""sim.runs":1"#,
    ] {
        assert!(json.contains(key), "metrics missing {key}:\n{json}");
    }
    // Sim-core counters flushed from the completed run's profile stats.
    for name in [
        "sim.profile.find_anchor_calls",
        "sim.profile.reserves",
        "sim.queue.inserts",
        "sim.queue.moves",
        "sim.profile.fits_cache.hits",
    ] {
        assert!(json.contains(name), "metrics missing {name}:\n{json}");
    }
    // Pool instrumentation: latency histogram and refreshed gauges.
    assert!(json.contains(r#""service.pool.run_wall_ms""#));
    assert!(json.contains(r#""service.pool.queue_depth":0"#));
    assert!(json.contains(r#""service.pool.in_flight":0"#));
    assert!(json.contains(r#""service.draining":0"#));

    // Identical registry state must render byte-identically.
    let again = client.metrics().expect("metrics verb twice");
    assert_eq!(json, again, "canonical snapshot must be reproducible");

    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn stats_invariant_holds_under_concurrent_submits() {
    // Queue capacity covers all 8 concurrent submits: this test expects
    // every one to complete, so none may be shed as Busy.
    let handle = Server::start(
        "127.0.0.1:0",
        ServiceConfig {
            workers: 2,
            queue_cap: 8,
            ..ServiceConfig::default()
        },
    )
    .expect("start daemon");
    let addr = handle.addr();

    let configs: Vec<RunConfig> = (0..8).map(config).collect();
    let done = AtomicBool::new(false);
    // Submitters + the stats probe + the completion waiter.
    let barrier = Barrier::new(configs.len() + 2);

    std::thread::scope(|scope| {
        for cfg in &configs {
            let barrier = &barrier;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                barrier.wait();
                client.submit(cfg).expect("submit");
            });
        }

        // The probe hammers Stats while the batch races through the
        // pool; any snapshot where a task is double-counted (completed
        // while still in-flight) fails here.
        let done = &done;
        let barrier = &barrier;
        let probe = scope.spawn(move || {
            let mut client = Client::connect(addr).expect("connect probe");
            barrier.wait();
            let mut observed = 0u64;
            while !done.load(Ordering::SeqCst) {
                let s = client.stats().expect("stats");
                assert!(
                    s.submitted >= s.completed + s.failed + s.in_flight,
                    "accounting violated: submitted={} completed={} failed={} in_flight={}",
                    s.submitted,
                    s.completed,
                    s.failed,
                    s.in_flight
                );
                observed += 1;
            }
            observed
        });

        // Scoped threads join when the scope ends; flip the flag once
        // all submitters are done by joining them implicitly via a
        // final in-scope checkpoint client.
        scope.spawn(|| {
            // Wait until every config is accounted for as completed.
            let mut client = Client::connect(addr).expect("connect waiter");
            barrier.wait();
            loop {
                let s = client.stats().expect("stats");
                if s.completed + s.failed >= configs.len() as u64 {
                    break;
                }
                std::thread::yield_now();
            }
            done.store(true, Ordering::SeqCst);
        });

        let polls = probe.join().unwrap();
        assert!(polls > 0, "probe never observed a snapshot");
    });

    let mut client = Client::connect(addr).expect("connect");
    let final_stats = client.stats().expect("stats");
    assert_eq!(final_stats.completed, configs.len() as u64);
    assert_eq!(final_stats.in_flight, 0);
    client.shutdown().expect("shutdown");
    handle.join();
}
