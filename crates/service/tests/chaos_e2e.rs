//! Chaos end-to-end test: 8 concurrent resilient clients drive a batch
//! through a daemon armed with a deterministic fault plan (worker
//! panics, dropped connections, corrupted frames, slow workers) and
//! must collectively receive exactly one correct response per config,
//! byte-identical to a fault-free direct run.
//!
//! Also pins the individual hardening behaviors: overload shedding
//! (`Busy`), oversized-frame rejection, the server-side idle read
//! timeout, and that Shutdown's wake connection claims no `connect`
//! fault index.

use backfill_sim::{run_all, RunConfig, Scenario, SchedulerKind, TraceSource};
use sched::Policy;
use service::{
    Client, ClientError, ClientOptions, FaultPlan, ResilientClient, Response, RetryPolicy,
    RunReport, Server, ServiceConfig,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Duration;

/// 16 distinct configs: 2 trace seeds x 2 schedulers x 4 policies.
fn chaos_batch() -> Vec<RunConfig> {
    let mut configs = Vec::new();
    for seed in [3, 4] {
        let scenario = Scenario::high_load(TraceSource::Ctc { jobs: 120, seed });
        for kind in [SchedulerKind::Easy, SchedulerKind::Conservative] {
            for policy in [Policy::Fcfs, Policy::Sjf, Policy::XFactor, Policy::Ljf] {
                configs.push(RunConfig {
                    scenario,
                    kind,
                    policy,
                });
            }
        }
    }
    configs
}

#[test]
fn chaos_plan_loses_no_responses_and_preserves_results() {
    // ≥1 worker panic, ≥1 dropped connection, ≥1 slow worker (plus a
    // corrupted frame) — the issue's minimum chaos menu. The injected
    // worker panic prints through the default panic hook; that stderr
    // noise is expected in this test's output.
    let plan = FaultPlan::parse("seed=7;panic@1;drop@4;corrupt@6;delay@9=120ms;drop@12")
        .expect("plan parses");
    let handle = Server::start(
        "127.0.0.1:0",
        ServiceConfig {
            workers: 4,
            queue_cap: 32, // nothing shed: this test isolates the fault plan
            fault_plan: Some(plan.clone()),
            ..ServiceConfig::default()
        },
    )
    .expect("start daemon");
    let addr = handle.addr().to_string();
    let configs = chaos_batch();

    // 8 concurrent clients, 2 configs each, distinct retry seeds so
    // their backoff schedules never synchronize.
    let replies: Mutex<BTreeMap<u64, String>> = Mutex::new(BTreeMap::new());
    let barrier = Barrier::new(8);
    std::thread::scope(|scope| {
        for (worker, chunk) in configs.chunks(2).enumerate() {
            let (addr, barrier, replies) = (&addr, &barrier, &replies);
            scope.spawn(move || {
                let mut client = ResilientClient::new(
                    addr.as_str(),
                    ClientOptions {
                        deadline: Some(Duration::from_secs(10)),
                        retry: RetryPolicy {
                            max_retries: 8,
                            base: Duration::from_millis(5),
                            cap: Duration::from_millis(100),
                            seed: worker as u64,
                        },
                    },
                );
                barrier.wait(); // maximize request overlap
                for config in chunk {
                    let reply = client.submit(config).expect("chaos submit must succeed");
                    assert_eq!(reply.config_hash, config.content_hash());
                    let json = serde_json::to_string(&reply.report).unwrap();
                    let prev = replies.lock().unwrap().insert(reply.config_hash, json);
                    assert!(prev.is_none(), "duplicate response for one config");
                }
            });
        }
    });

    // Exactly one response per submitted config, byte-identical to a
    // fault-free direct run of the same batch.
    let replies = replies.into_inner().unwrap();
    assert_eq!(replies.len(), configs.len());
    let direct = run_all(&configs, std::num::NonZeroUsize::new(4));
    for (config, result) in configs.iter().zip(&direct) {
        let expected =
            serde_json::to_string(&RunReport::from_schedule(config, &result.schedule)).unwrap();
        assert_eq!(
            replies.get(&config.content_hash()),
            Some(&expected),
            "{}: chaos-run report differs from fault-free run",
            config.label()
        );
    }

    // The faults demonstrably fired, and the daemon accounted for them.
    let mut probe = Client::connect(addr.as_str()).expect("connect probe");
    let health = probe.health().expect("health");
    assert!(health.ready && !health.draining);
    assert!(
        health.worker_panics >= 1,
        "the panic@1 rule must have killed a worker"
    );
    assert_eq!(
        health.fault_plan.as_deref(),
        Some(plan.to_string().as_str()),
        "health must advertise the armed plan"
    );
    let stats = probe.stats().expect("stats");
    assert_eq!(stats.cache_entries, configs.len() as u64);
    assert!(
        stats.submitted > configs.len() as u64,
        "faulted submits must have been resubmitted (submitted={})",
        stats.submitted
    );
    assert!(stats.failed >= 1, "the worker panic must count as failed");
    // Each of the 4 loss-inducing rules (panic, 2 drops, corrupt)
    // forced at least one client retry.
    let retries = obs::metrics::global().counter("client.retries").get();
    assert!(retries >= 4, "expected >= 4 client retries, saw {retries}");

    probe.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn full_queue_sheds_with_busy_instead_of_blocking() {
    // 1 worker pinned by a 300 ms injected delay on every index + a
    // 1-slot queue: of 6 simultaneous submits, at most 2 can be
    // admitted before the first completes — the rest must be refused
    // with Busy immediately, not block the accept path.
    let handle = Server::start(
        "127.0.0.1:0",
        ServiceConfig {
            workers: 1,
            queue_cap: 1,
            fault_plan: Some(FaultPlan::parse("delay@0..100=300ms").unwrap()),
            ..ServiceConfig::default()
        },
    )
    .expect("start daemon");
    let addr = handle.addr();

    let configs: Vec<RunConfig> = (0..6)
        .map(|seed| RunConfig {
            scenario: Scenario::high_load(TraceSource::Ctc {
                jobs: 60,
                seed: 100 + seed,
            }),
            kind: SchedulerKind::Easy,
            policy: Policy::Fcfs,
        })
        .collect();
    let completed = AtomicUsize::new(0);
    let shed = AtomicUsize::new(0);
    let barrier = Barrier::new(configs.len());
    std::thread::scope(|scope| {
        for config in &configs {
            let (barrier, completed, shed) = (&barrier, &completed, &shed);
            scope.spawn(move || {
                // Raw clients on purpose: Busy must surface, not be
                // absorbed by retries.
                let mut client = Client::connect(addr).expect("connect");
                barrier.wait();
                match client.submit(config) {
                    Ok(_) => {
                        completed.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(ClientError::Busy) => {
                        shed.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(other) => panic!("expected success or Busy, got {other}"),
                }
            });
        }
    });
    let done = completed.load(Ordering::SeqCst);
    let busy = shed.load(Ordering::SeqCst);
    assert_eq!(done + busy, configs.len());
    assert!(
        busy >= 1,
        "a 1+1 capacity daemon must shed part of a 6-burst"
    );

    let mut probe = Client::connect(addr).expect("connect probe");
    let stats = probe.stats().expect("stats");
    assert_eq!(stats.shed, busy as u64);
    assert_eq!(stats.completed, done as u64);
    // Shed submits still count as submitted, never as failed.
    assert_eq!(stats.submitted, configs.len() as u64);
    assert_eq!(stats.failed, 0);
    probe.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn oversized_request_frame_is_rejected_with_a_structured_error() {
    use std::io::{BufRead, BufReader, Write};
    let handle = Server::start(
        "127.0.0.1:0",
        ServiceConfig {
            workers: 1,
            queue_cap: 1,
            max_frame: 2048,
            ..ServiceConfig::default()
        },
    )
    .expect("start daemon");
    let addr = handle.addr();

    let stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    // A 64 KiB line against a 2 KiB limit: the server must answer a
    // structured, non-retryable error without buffering the payload.
    let mut big = vec![b'x'; 64 * 1024];
    big.push(b'\n');
    writer.write_all(&big).unwrap();
    writer.flush().unwrap();
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .expect("server must answer an oversized frame within the deadline");
    match serde_json::from_str::<Response>(line.trim_end()).unwrap() {
        Response::Error {
            message, retryable, ..
        } => {
            assert!(
                message.contains("exceeds") && message.contains("2048"),
                "error must name the limit: {message}"
            );
            assert!(!retryable, "resending the same oversized frame cannot help");
        }
        other => panic!("expected Error, got {other:?}"),
    }

    // The connection survived in line-sync: a well-formed request on
    // the same socket still works.
    writer.write_all(b"\"Stats\"\n").unwrap();
    writer.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).expect("stats after oversized");
    assert!(matches!(
        serde_json::from_str::<Response>(line.trim_end()).unwrap(),
        Response::Stats(_)
    ));

    let mut client = Client::connect(addr).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn idle_connection_is_reaped_by_the_read_timeout() {
    use std::io::Read;
    let handle = Server::start(
        "127.0.0.1:0",
        ServiceConfig {
            workers: 1,
            queue_cap: 1,
            read_timeout: Some(Duration::from_millis(100)),
            ..ServiceConfig::default()
        },
    )
    .expect("start daemon");
    let addr = handle.addr();

    // Connect and send nothing: the server's read deadline must close
    // the connection (we observe EOF), keeping idle sockets from
    // pinning handler threads forever.
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = [0u8; 16];
    let n = stream
        .read(&mut buf)
        .expect("read must resolve once the server reaps the connection");
    assert_eq!(n, 0, "expected EOF from the reaped connection");

    // The daemon itself is unaffected.
    let mut client = Client::connect(addr).expect("connect");
    client.stats().expect("stats after reap");
    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn shutdown_wake_claims_no_connect_fault_index() {
    // Connection 0 carries the delayed submit that holds the drain open,
    // connection 1 sends Shutdown, connection 2 opens mid-drain and must
    // be the one `connect@2` drops. Had the wake that Shutdown sends to
    // its own accept loop been counted, it would have used up index 2
    // and connection 2 would be served.
    let plan = FaultPlan::parse("delay@0=500ms;connect@2").expect("plan parses");
    let handle = Server::start(
        "127.0.0.1:0",
        ServiceConfig {
            workers: 1,
            queue_cap: 2,
            fault_plan: Some(plan),
            ..ServiceConfig::default()
        },
    )
    .expect("start daemon");
    let addr = handle.addr();
    let config = chaos_batch()[0];

    // Each connection answers one request before the next opens, so the
    // connect indices follow the order below.
    let mut submitter = Client::connect(addr).expect("connect 0");
    submitter.health().expect("connection 0 is served");
    let delayed = std::thread::spawn(move || submitter.submit(&config));

    let mut killer = Client::connect(addr).expect("connect 1");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while killer.stats().expect("stats").submitted == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "delayed submit never arrived"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    killer.shutdown().expect("shutdown ack");

    let mut dropped = Client::connect(addr).expect("connect 2");
    let refused = dropped.health();
    assert!(
        matches!(refused, Err(ref e) if e.is_transport()),
        "connection 2 must be dropped at accept, got {refused:?}"
    );
    let mut late = Client::connect(addr).expect("connect 3");
    let health = late.health().expect("connection 3 is served mid-drain");
    assert!(
        health.draining,
        "the delayed submit must still hold the drain"
    );

    let reply = delayed
        .join()
        .unwrap()
        .expect("the delayed submit must get its report");
    assert_eq!(reply.config_hash, config.content_hash());
    handle.join();
}
