//! End-to-end daemon test: concurrent submits over real TCP, cache
//! replay, fault isolation, and graceful drain — the issue's acceptance
//! scenario.

use backfill_sim::{run_all, RunConfig, Scenario, SchedulerKind, TraceSource};
use sched::Policy;
use service::{Client, ClientError, Response, RunReport, Server, ServiceConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

/// The concurrent batch: 2 schedulers x 4 policies over one scenario.
fn batch() -> Vec<RunConfig> {
    let scenario = Scenario::high_load(TraceSource::Ctc { jobs: 140, seed: 7 });
    let mut configs = Vec::new();
    for kind in [SchedulerKind::Easy, SchedulerKind::Conservative] {
        for policy in [Policy::Fcfs, Policy::Sjf, Policy::XFactor, Policy::Ljf] {
            configs.push(RunConfig {
                scenario,
                kind,
                policy,
            });
        }
    }
    configs
}

fn poisoned() -> RunConfig {
    RunConfig {
        scenario: Scenario {
            source: TraceSource::Ctc { jobs: 50, seed: 1 },
            estimate: workload::EstimateModel::Exact,
            estimate_seed: 1,
            load: Some(-1.0), // trips scale_to_load's positivity assert
        },
        kind: SchedulerKind::Easy,
        policy: Policy::Fcfs,
    }
}

/// Submit every config from its own client thread; returns replies in
/// config order.
fn submit_concurrently(
    addr: std::net::SocketAddr,
    configs: &[RunConfig],
) -> Vec<service::RunReply> {
    let barrier = Barrier::new(configs.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = configs
            .iter()
            .map(|config| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    barrier.wait(); // maximize request overlap
                    client.submit(config).expect("submit")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

#[test]
fn daemon_serves_concurrent_batch_then_replays_from_cache() {
    // Queue capacity covers the whole batch: this test asserts every
    // concurrent submit completes, so nothing may be shed as Busy.
    let handle = Server::start(
        "127.0.0.1:0",
        ServiceConfig {
            workers: 4,
            queue_cap: 8,
            ..ServiceConfig::default()
        },
    )
    .expect("start daemon");
    let addr = handle.addr();
    let configs = batch();

    // (a) Concurrent first pass: every response must equal the report
    // computed from a direct in-process run of the same config.
    let first = submit_concurrently(addr, &configs);
    let direct = run_all(&configs, std::num::NonZeroUsize::new(4));
    for ((config, reply), result) in configs.iter().zip(&first).zip(&direct) {
        assert!(
            !reply.cached,
            "{}: first pass must simulate",
            config.label()
        );
        assert_eq!(reply.config_hash, config.content_hash());
        let expected = RunReport::from_schedule(config, &result.schedule);
        assert_eq!(
            serde_json::to_string(&reply.report).unwrap(),
            serde_json::to_string(&expected).unwrap(),
            "{}: daemon report differs from direct run",
            config.label()
        );
    }

    // (b) Resubmitting the whole batch is served entirely from cache,
    // byte-identical, and the hit counters prove it.
    let mut probe = Client::connect(addr).expect("connect");
    let before = probe.stats().expect("stats");
    assert_eq!(before.cache_hits, 0);
    assert_eq!(before.cache_misses, configs.len() as u64);
    assert_eq!(before.cache_entries, configs.len() as u64);
    assert_eq!(before.completed, configs.len() as u64);

    let second = submit_concurrently(addr, &configs);
    for (reply, fresh) in second.iter().zip(&first) {
        assert!(reply.cached, "second pass must hit the cache");
        assert_eq!(
            serde_json::to_string(&reply.report).unwrap(),
            serde_json::to_string(&fresh.report).unwrap(),
            "cached report must be byte-identical to the fresh one"
        );
    }
    let after = probe.stats().expect("stats");
    assert_eq!(after.cache_hits, configs.len() as u64);
    assert_eq!(after.cache_misses, configs.len() as u64);
    assert_eq!(after.submitted, 2 * configs.len() as u64);

    // Shut down so the daemon thread exits.
    probe.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn poisoned_scenario_gets_error_and_daemon_survives() {
    // The worker's catch_unwind still lets the default hook print the
    // panic to stderr; that noise is expected in this test's output.
    let handle = Server::start(
        "127.0.0.1:0",
        ServiceConfig {
            workers: 1,
            queue_cap: 2,
            ..ServiceConfig::default()
        },
    )
    .expect("start daemon");
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("connect");

    let bad = poisoned();
    match client.submit(&bad) {
        Err(ClientError::Service {
            message,
            config_hash,
            retryable,
        }) => {
            assert!(
                message.contains("target load must be positive"),
                "unexpected message: {message}"
            );
            assert_eq!(config_hash, bad.content_hash());
            assert!(
                !retryable,
                "a deterministic cell failure must not invite retries"
            );
        }
        other => panic!("poisoned submit must fail at request level, got {other:?}"),
    }

    // The same connection and daemon still serve healthy work.
    let good = batch()[0];
    let reply = client.submit(&good).expect("daemon must survive the panic");
    assert!(!reply.cached);
    assert_eq!(reply.report.jobs, 140);

    let stats = client.stats().expect("stats");
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.completed, 1);

    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn malformed_request_line_is_rejected_not_fatal() {
    use std::io::{BufRead, BufReader, Write};
    let handle = Server::start(
        "127.0.0.1:0",
        ServiceConfig {
            workers: 1,
            queue_cap: 1,
            ..ServiceConfig::default()
        },
    )
    .expect("start daemon");
    let addr = handle.addr();

    let stream = std::net::TcpStream::connect(addr).unwrap();
    // Deadline-bounded read: a hung daemon fails with a clear timeout
    // instead of hanging the test run.
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    writer.write_all(b"this is not json\n").unwrap();
    writer.flush().unwrap();
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .expect("daemon must answer a malformed line within the deadline");
    match serde_json::from_str::<Response>(line.trim_end()).unwrap() {
        Response::Error {
            message,
            config_hash,
            retryable,
        } => {
            assert!(message.contains("malformed request"), "{message}");
            assert_eq!(config_hash, 0);
            assert!(!retryable, "a malformed frame will not parse next time");
        }
        other => panic!("expected Error, got {other:?}"),
    }

    // Daemon is still fine afterwards.
    let mut client = Client::connect(addr).expect("connect");
    client.stats().expect("stats after malformed line");
    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn deeply_nested_frame_is_rejected_and_the_connection_keeps_serving() {
    use service::Request;
    use std::io::{BufRead, BufReader, Write};
    let handle = Server::start(
        "127.0.0.1:0",
        ServiceConfig {
            workers: 1,
            queue_cap: 1,
            ..ServiceConfig::default()
        },
    )
    .expect("start daemon");
    let addr = handle.addr();

    let stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut exchange = |frame: &str| -> Response {
        writer.write_all(frame.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .expect("daemon must answer within the deadline");
        serde_json::from_str(line.trim_end()).expect("a well-formed response")
    };

    // 100,000 nested arrays: about 100 KB, inside the 1 MiB frame limit.
    // A parser that recursed per bracket overflowed the handler thread's
    // stack and aborted the whole daemon.
    match exchange(&"[".repeat(100_000)) {
        Response::Error {
            message,
            config_hash,
            retryable,
        } => {
            assert!(message.contains("malformed request"), "{message}");
            assert!(message.contains("nesting"), "{message}");
            assert_eq!(config_hash, 0);
            assert!(!retryable);
        }
        other => panic!("expected Error, got {other:?}"),
    }

    // The same connection then gets an ordinary Submit answered.
    let config = batch()[0];
    let submit = Request::Submit {
        config,
        trace: None,
    };
    match exchange(&serde_json::to_string(&submit).unwrap()) {
        Response::Run(reply) => {
            assert_eq!(reply.config_hash, config.content_hash());
            assert_eq!(reply.report.jobs, 140);
        }
        other => panic!("expected Run, got {other:?}"),
    }

    let mut client = Client::connect(addr).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn graceful_shutdown_drains_in_flight_without_losing_responses() {
    // 1 worker + tiny queue: most of the batch is queued (or shed as
    // Busy, now that the queue refuses instead of blocking) when the
    // shutdown lands mid-flight. Every submitter must still get a
    // definitive answer — a report, Busy, or ShuttingDown — and every
    // accepted request must produce its report.
    let handle = Server::start(
        "127.0.0.1:0",
        ServiceConfig {
            workers: 1,
            queue_cap: 2,
            ..ServiceConfig::default()
        },
    )
    .expect("start daemon");
    let addr = handle.addr();
    let configs = batch();

    let answered = AtomicUsize::new(0);
    let completed = AtomicUsize::new(0);
    let rejected = AtomicUsize::new(0);
    let shed = AtomicUsize::new(0);
    let barrier = Barrier::new(configs.len() + 1);
    std::thread::scope(|scope| {
        for config in &configs {
            let barrier = &barrier;
            let (answered, completed, rejected, shed) = (&answered, &completed, &rejected, &shed);
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                barrier.wait();
                match client.submit(config) {
                    Ok(reply) => {
                        assert_eq!(reply.config_hash, config.content_hash());
                        completed.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(ClientError::ShuttingDown) => {
                        rejected.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(ClientError::Busy) => {
                        shed.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(other) => panic!("lost response: {other}"),
                }
                answered.fetch_add(1, Ordering::SeqCst);
            });
        }
        barrier.wait();
        // Let some submits land, then pull the plug from a separate
        // connection while others are still queued or simulating.
        std::thread::sleep(std::time::Duration::from_millis(30));
        let mut killer = Client::connect(addr).expect("connect");
        killer.shutdown().expect("shutdown ack");
    });
    handle.join(); // daemon only exits once the drain gate opens

    assert_eq!(
        answered.load(Ordering::SeqCst),
        configs.len(),
        "every submitter must get exactly one response"
    );
    let done = completed.load(Ordering::SeqCst);
    let refused = rejected.load(Ordering::SeqCst);
    let busy = shed.load(Ordering::SeqCst);
    assert_eq!(done + refused + busy, configs.len());

    // After join the daemon is gone: the port no longer accepts.
    assert!(
        std::net::TcpStream::connect(addr).is_err(),
        "daemon must have stopped listening after drain"
    );
}
