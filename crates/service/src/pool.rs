//! Bounded worker pool with backpressure, load shedding, and per-task
//! fault isolation.
//!
//! Tasks flow through a **bounded** crossbeam channel. The server sheds
//! load with [`WorkerPool::try_submit`]: when `queue_cap` tasks are
//! already waiting the task comes straight back as
//! [`SubmitError::Full`], and the caller answers `Busy` instead of
//! stalling its connection handler. The blocking [`WorkerPool::submit`]
//! remains for callers that prefer backpressure over shedding.
//!
//! Two fault boundaries protect the pool:
//!
//! * `backfill_sim::run_cell_on` catches panics **inside** a simulation, so
//!   a poisoned scenario produces an error result for its requester;
//! * the worker loop itself wraps each task in `catch_unwind`, so a
//!   panic **outside** the simulation (an injected worker fault, or a
//!   real bug in the pool path) kills neither the worker thread nor the
//!   daemon. The task's reply is deliberately *not* sent — the requester
//!   observes a crashed worker, exactly as if the thread had died — and
//!   `worker_panics` counts the event.

use crate::fault::FaultActions;
use crate::tracecache::TraceCache;
use backfill_sim::{run_cell_on, CellError, RunConfig, Schedule, SimOptions};
use crossbeam::channel::{self, Sender, TrySendError};
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One unit of work: a config plus the channel its result goes back on.
pub struct Task {
    /// The scenario to simulate.
    pub config: RunConfig,
    /// Where the worker sends the outcome (the submitting handler blocks
    /// on the paired receiver).
    pub reply: mpsc::Sender<TaskResult>,
    /// Injected faults to apply while executing this task (delay, then
    /// panic, both ahead of the simulation). `FaultActions::default()`
    /// for normal operation; only `panic` and `delay` are interpreted
    /// here — the wire-level kinds belong to the connection handler.
    pub fault: FaultActions,
    /// Distributed-trace parent for this task's spans, when the submit
    /// carried one. The worker records `pool.wait` (queue time) and
    /// `pool.run` (simulation) spans under it and runs the simulation
    /// with per-phase profiling.
    pub trace: Option<obs::SpanContext>,
    /// When the connection handler accepted the task; the `pool.wait`
    /// span is the gap between this and worker pickup.
    pub accepted: Instant,
}

/// What a worker produced for one task.
pub struct TaskResult {
    /// The schedule, or the isolated panic.
    pub outcome: Result<Schedule, CellError>,
    /// Time the worker spent simulating (excludes queue wait).
    pub run_wall: Duration,
    /// Per-phase simulator timings, collected only for traced tasks; the
    /// handler flushes them into the daemon's registry histograms.
    pub phases: Option<Box<obs::PhaseAcc>>,
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolClosed;

/// Why [`WorkerPool::try_submit`] handed a task back.
pub enum SubmitError {
    /// The queue is at capacity; shed the request (the task is returned
    /// so the caller can report which config was refused).
    Full(Task),
    /// The pool has shut down.
    Closed(Task),
}

// Task holds a reply channel (not Debug), so render the variant alone.
impl std::fmt::Debug for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Full(_) => write!(f, "SubmitError::Full(..)"),
            SubmitError::Closed(_) => write!(f, "SubmitError::Closed(..)"),
        }
    }
}

/// A fixed-size pool of simulation workers fed by a bounded queue.
pub struct WorkerPool {
    tx: Mutex<Option<Sender<Task>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    queued: Arc<AtomicUsize>,
    in_flight: Arc<AtomicUsize>,
    panics: Arc<AtomicUsize>,
    traces: Arc<TraceCache>,
}

impl WorkerPool {
    /// Spawn `workers` threads behind a queue of at most `queue_cap`
    /// waiting tasks, sharing a default-capacity [`TraceCache`]. Both
    /// sizes must be at least 1.
    pub fn new(workers: usize, queue_cap: usize) -> Self {
        Self::with_trace_cache(workers, queue_cap, Arc::new(TraceCache::new()))
    }

    /// Like [`Self::new`], sharing the caller's trace cache — the daemon
    /// hands in the cache whose counters it has bound to its registry.
    pub fn with_trace_cache(workers: usize, queue_cap: usize, traces: Arc<TraceCache>) -> Self {
        assert!(workers >= 1, "pool needs at least one worker");
        let (tx, rx) = channel::bounded::<Task>(queue_cap);
        let queued = Arc::new(AtomicUsize::new(0));
        let in_flight = Arc::new(AtomicUsize::new(0));
        let panics = Arc::new(AtomicUsize::new(0));
        let handles = (0..workers)
            .map(|_| {
                let rx = rx.clone();
                let queued = queued.clone();
                let in_flight = in_flight.clone();
                let panics = panics.clone();
                let traces = traces.clone();
                std::thread::spawn(move || {
                    while let Ok(task) = rx.recv() {
                        queued.fetch_sub(1, Ordering::SeqCst);
                        in_flight.fetch_add(1, Ordering::SeqCst);
                        // The outer catch_unwind is the pool's own crash
                        // boundary: injected worker panics (and any real
                        // bug outside the simulation boundary) land here,
                        // not on the thread.
                        let result = catch_unwind(AssertUnwindSafe(|| {
                            // The queue-wait span closes at pickup, before
                            // any injected fault stretches the timeline.
                            if let Some(ctx) = task.trace {
                                let wait_us = task.accepted.elapsed().as_micros() as u64;
                                obs::span::record_raw(obs::SpanRecord {
                                    trace_id: ctx.trace_id,
                                    span_id: obs::span::next_span_id(),
                                    parent_id: ctx.span_id,
                                    name: "pool.wait".into(),
                                    start_us: obs::span::now_micros().saturating_sub(wait_us),
                                    dur_us: wait_us,
                                });
                            }
                            if let Some(delay) = task.fault.delay {
                                std::thread::sleep(delay);
                            }
                            if task.fault.panic {
                                panic!("injected worker panic (fault plan)");
                            }
                            let started = Instant::now();
                            let run_span = task.trace.map(|ctx| obs::Span::child(ctx, "pool.run"));
                            // Traced tasks run with per-phase profiling;
                            // the sampled phase spans parent under the
                            // pool.run span. Untraced tasks run without it.
                            let phase_acc = task.trace.map(|_| {
                                let acc =
                                    std::rc::Rc::new(std::cell::RefCell::new(obs::PhaseAcc::new()));
                                if let Some(ctx) = run_span.as_ref().and_then(|s| s.ctx()) {
                                    acc.borrow_mut().set_ctx(ctx);
                                }
                                acc
                            });
                            // Trace sharing: tasks over the same scenario
                            // reuse one materialized trace. Both halves —
                            // materialization and simulation — keep
                            // run_cell_on's per-task fault isolation.
                            let outcome = match traces.get_or_materialize(&task.config.scenario) {
                                Ok(trace) => {
                                    let options = SimOptions {
                                        recorder: None,
                                        phases: phase_acc.clone(),
                                    };
                                    run_cell_on(&task.config, &trace, options)
                                }
                                Err(panic) => Err(CellError {
                                    config: task.config,
                                    panic,
                                }),
                            };
                            drop(run_span); // records the span's end
                            obs::span::flush_thread();
                            let phases = phase_acc
                                .and_then(|acc| std::rc::Rc::try_unwrap(acc).ok())
                                .map(|cell| Box::new(cell.into_inner()));
                            TaskResult {
                                outcome,
                                run_wall: started.elapsed(),
                                phases,
                            }
                        }));
                        // Stop counting the task as in-flight BEFORE the
                        // reply becomes observable: the handler bumps
                        // `completed` as soon as it receives the result,
                        // and decrementing afterwards would open a window
                        // where the task is counted both completed and
                        // in-flight (submitted ≥ completed + in_flight
                        // would read as violated).
                        in_flight.fetch_sub(1, Ordering::SeqCst);
                        match result {
                            // The requester may have vanished (connection
                            // dropped); the result is then discarded.
                            Ok(result) => {
                                let _ = task.reply.send(result);
                            }
                            // Crashed worker: drop the reply sender
                            // without sending, so the requester's recv
                            // fails — indistinguishable from the thread
                            // dying, but the pool stays at full strength.
                            Err(_) => {
                                panics.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                    }
                })
            })
            .collect();
        WorkerPool {
            tx: Mutex::new(Some(tx)),
            workers: Mutex::new(handles),
            queued,
            in_flight,
            panics,
            traces,
        }
    }

    /// The scenario-keyed trace cache shared by the workers.
    pub fn trace_cache(&self) -> &TraceCache {
        &self.traces
    }

    /// Queue a task, blocking while the queue is at capacity
    /// (backpressure). Fails once [`Self::shutdown`] has run.
    pub fn submit(&self, task: Task) -> Result<(), PoolClosed> {
        // Clone the sender out of the lock so a blocked send doesn't
        // serialize every other submitter behind this one.
        let tx = match self.tx.lock().as_ref() {
            Some(tx) => tx.clone(),
            None => return Err(PoolClosed),
        };
        self.queued.fetch_add(1, Ordering::SeqCst);
        match tx.send(task) {
            Ok(()) => Ok(()),
            Err(_) => {
                self.queued.fetch_sub(1, Ordering::SeqCst);
                Err(PoolClosed)
            }
        }
    }

    /// Queue a task without blocking: a full queue hands the task back
    /// as [`SubmitError::Full`] so the caller can shed the request with
    /// an explicit busy signal instead of stalling.
    // Returning the whole Task in the error IS the API: the caller gets
    // its request back on a shed instead of losing it, so boxing to
    // shrink the Err variant would just trade size for an allocation on
    // the overload path.
    #[allow(clippy::result_large_err)]
    pub fn try_submit(&self, task: Task) -> Result<(), SubmitError> {
        let tx = match self.tx.lock().as_ref() {
            Some(tx) => tx.clone(),
            None => return Err(SubmitError::Closed(task)),
        };
        self.queued.fetch_add(1, Ordering::SeqCst);
        match tx.try_send(task) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(task)) => {
                self.queued.fetch_sub(1, Ordering::SeqCst);
                Err(SubmitError::Full(task))
            }
            Err(TrySendError::Disconnected(task)) => {
                self.queued.fetch_sub(1, Ordering::SeqCst);
                Err(SubmitError::Closed(task))
            }
        }
    }

    /// Tasks accepted but not yet picked up by a worker.
    pub fn queue_depth(&self) -> usize {
        self.queued.load(Ordering::SeqCst)
    }

    /// Tasks currently being simulated.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// Tasks whose worker panicked outside the simulation boundary
    /// (injected faults and pool-path bugs); their replies were never
    /// sent.
    pub fn worker_panics(&self) -> usize {
        self.panics.load(Ordering::SeqCst)
    }

    /// Close the queue and wait for the workers to finish everything
    /// already accepted. After this, [`Self::submit`] fails fast; tasks
    /// that were queued before the close still run and still reply.
    pub fn shutdown(&self) {
        drop(self.tx.lock().take());
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.workers.lock());
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backfill_sim::{Scenario, SchedulerKind, TraceSource};
    use sched::Policy;

    fn config(seed: u64, load: f64) -> RunConfig {
        RunConfig {
            scenario: Scenario {
                source: TraceSource::Ctc { jobs: 80, seed },
                estimate: workload::EstimateModel::Exact,
                estimate_seed: 1,
                load: Some(load),
            },
            kind: SchedulerKind::Easy,
            policy: Policy::Fcfs,
        }
    }

    fn task(config: RunConfig, reply: mpsc::Sender<TaskResult>) -> Task {
        Task {
            config,
            reply,
            fault: FaultActions::default(),
            trace: None,
            accepted: Instant::now(),
        }
    }

    #[test]
    fn executes_and_replies() {
        let pool = WorkerPool::new(2, 4);
        let (reply, results) = mpsc::channel();
        for seed in 0..6u64 {
            pool.submit(task(config(seed, 0.9), reply.clone())).unwrap();
        }
        drop(reply);
        let mut seen = 0;
        while let Ok(result) = results.recv() {
            assert!(result.outcome.is_ok());
            seen += 1;
        }
        assert_eq!(seen, 6);
        pool.shutdown();
        assert_eq!(pool.queue_depth(), 0);
        assert_eq!(pool.in_flight(), 0);
        assert_eq!(pool.worker_panics(), 0);
    }

    #[test]
    fn tasks_over_one_scenario_share_a_trace() {
        let pool = WorkerPool::new(2, 8);
        let (reply, results) = mpsc::channel();
        // Six tasks, two distinct scenarios: the cache must materialize
        // exactly two traces, everything else hits.
        for i in 0..6u64 {
            pool.submit(task(config(i % 2, 0.9), reply.clone()))
                .unwrap();
        }
        drop(reply);
        while results.recv().is_ok() {}
        let (hits, misses, entries, evictions) = pool.trace_cache().stats();
        assert_eq!(hits + misses, 6);
        assert_eq!(entries, 2);
        assert_eq!(evictions, 0);
        // Workers may race the first materialization of each scenario,
        // so misses can exceed 2 — but never the task count, and with
        // two scenarios at least four lookups land after a publish
        // barrier in the common unraced run.
        assert!(misses >= 2, "two scenarios need two materializations");
    }

    #[test]
    fn poisoned_task_is_isolated() {
        let pool = WorkerPool::new(1, 2);
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // expected panic below
        let (reply, results) = mpsc::channel();
        pool.submit(task(config(1, -1.0), reply.clone())).unwrap(); // negative load panics in scale_to_load
        pool.submit(task(config(2, 0.9), reply)).unwrap();
        let first = results.recv().unwrap();
        let second = results.recv().unwrap();
        std::panic::set_hook(hook);
        let err = first.outcome.expect_err("poisoned task must fail");
        assert!(err.panic.contains("target load must be positive"));
        assert!(second.outcome.is_ok(), "healthy task after a poisoned one");
        // The panic was inside run_cell_on's boundary, not the worker's.
        assert_eq!(pool.worker_panics(), 0);
    }

    #[test]
    fn injected_worker_panic_drops_reply_but_pool_survives() {
        let pool = WorkerPool::new(1, 2);
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // expected panic below
        let (crash_reply, crash_results) = mpsc::channel();
        pool.submit(Task {
            config: config(1, 0.9),
            reply: crash_reply,
            fault: FaultActions {
                panic: true,
                ..FaultActions::default()
            },
            trace: None,
            accepted: Instant::now(),
        })
        .unwrap();
        // The crashed task's reply channel closes without a result.
        assert!(
            crash_results.recv().is_err(),
            "crashed worker must not reply"
        );
        // The same (sole) worker thread still serves the next task.
        let (reply, results) = mpsc::channel();
        pool.submit(task(config(2, 0.9), reply)).unwrap();
        let healthy = results.recv().unwrap();
        std::panic::set_hook(hook);
        assert!(healthy.outcome.is_ok());
        assert_eq!(pool.worker_panics(), 1);
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    fn injected_delay_slows_the_task() {
        let pool = WorkerPool::new(1, 1);
        let (reply, results) = mpsc::channel();
        let started = Instant::now();
        pool.submit(Task {
            config: config(1, 0.9),
            reply,
            fault: FaultActions {
                delay: Some(Duration::from_millis(80)),
                ..FaultActions::default()
            },
            trace: None,
            accepted: Instant::now(),
        })
        .unwrap();
        assert!(results.recv().unwrap().outcome.is_ok());
        assert!(
            started.elapsed() >= Duration::from_millis(80),
            "delay fault must slow the worker"
        );
    }

    #[test]
    fn submit_fails_after_shutdown() {
        let pool = WorkerPool::new(1, 1);
        pool.shutdown();
        let (reply, _results) = mpsc::channel();
        let refused = pool.submit(task(config(1, 0.9), reply.clone()));
        assert_eq!(refused, Err(PoolClosed));
        assert!(matches!(
            pool.try_submit(task(config(1, 0.9), reply)),
            Err(SubmitError::Closed(_))
        ));
    }

    #[test]
    fn try_submit_sheds_when_queue_is_full() {
        // One worker pinned by a delayed task, capacity-1 queue: the
        // first try_submit fills the queue, the second must shed.
        let pool = WorkerPool::new(1, 1);
        let (reply, results) = mpsc::channel();
        pool.submit(Task {
            config: config(0, 0.9),
            reply: reply.clone(),
            fault: FaultActions {
                delay: Some(Duration::from_millis(150)),
                ..FaultActions::default()
            },
            trace: None,
            accepted: Instant::now(),
        })
        .unwrap();
        // Wait until the worker holds the delayed task, leaving the
        // queue empty; then fill it and overflow it.
        while pool.in_flight() == 0 {
            std::thread::yield_now();
        }
        pool.try_submit(task(config(1, 0.9), reply.clone()))
            .expect("queue has a free slot");
        let shed = pool.try_submit(task(config(2, 0.9), reply.clone()));
        match shed {
            Err(SubmitError::Full(t)) => assert_eq!(t.config, config(2, 0.9)),
            other => panic!("expected Full, got {:?}", other.map(|_| ())),
        }
        drop(reply);
        let mut seen = 0;
        while results.recv().is_ok() {
            seen += 1;
        }
        assert_eq!(seen, 2, "accepted tasks still complete");
    }

    #[test]
    fn queue_is_bounded() {
        // One worker pinned on a task, capacity-1 queue: the 3rd submit
        // must block until the worker frees a slot — observable as the
        // submitting thread not finishing early.
        let pool = WorkerPool::new(1, 1);
        let (reply, results) = mpsc::channel();
        let blocked = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let pool = &pool;
            let blocked = &blocked;
            let reply2 = reply.clone();
            scope.spawn(move || {
                for seed in 0..3u64 {
                    pool.submit(task(config(seed, 0.9), reply2.clone()))
                        .unwrap();
                    blocked.store(seed as usize + 1, Ordering::SeqCst);
                }
            });
            // All three tasks complete regardless; the pool stays FIFO.
            drop(reply);
            let mut seen = 0;
            while results.recv().is_ok() {
                seen += 1;
            }
            assert_eq!(seen, 3);
            assert_eq!(blocked.load(Ordering::SeqCst), 3);
        });
    }
}
