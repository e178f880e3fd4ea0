//! Parallel execution of simulation sweeps.
//!
//! Every figure in the paper is a sweep — (trace × scheduler × policy ×
//! estimate model) — and each cell is an independent, deterministic
//! simulation. This module fans the cells out over worker threads
//! (crossbeam channel as the work queue, scoped threads so no `'static`
//! bounds infect the configs) and returns results **in input order**, so
//! parallelism never changes any report.

use crate::config::{RunConfig, Scenario};
use crate::driver::{simulate_observed, SimOptions};
use crate::schedule::Schedule;
use crossbeam::channel;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use workload::Trace;

/// Result of one sweep cell.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The config that produced it.
    pub config: RunConfig,
    /// The resulting schedule.
    pub schedule: Schedule,
}

/// A sweep cell that panicked, carrying the offending config so the
/// caller can report (or retry, or skip) exactly the scenario at fault.
#[derive(Debug, Clone)]
pub struct CellError {
    /// The config whose simulation panicked.
    pub config: RunConfig,
    /// The panic payload, rendered as text.
    pub panic: String,
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cell {} panicked: {}", self.config.label(), self.panic)
    }
}

impl std::error::Error for CellError {}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one cell against an already materialized trace, with `options`
/// (a decision-trace recorder, per-phase timing, or neither) threaded
/// into the driver, converting a panic inside the simulation into a
/// [`CellError`] instead of unwinding into the caller. This is the fault
/// boundary both the sweep runner and the simulation service stand on:
/// one poisoned scenario must not take down its whole batch (or daemon).
/// Observing a run never changes it: the schedule is byte-identical to
/// an unobserved run's.
// CellError embeds the offending RunConfig by value (136 bytes); the Err
// path only exists on a panicked cell, so the width is irrelevant and
// boxing would complicate every consumer.
#[allow(clippy::result_large_err)]
pub fn run_cell_on(
    config: &RunConfig,
    trace: &Trace,
    options: SimOptions,
) -> Result<Schedule, CellError> {
    catch_unwind(AssertUnwindSafe(|| {
        simulate_observed(trace, config.kind, config.policy, options).0
    }))
    .map_err(|payload| CellError {
        config: *config,
        panic: panic_message(payload),
    })
}

/// Materialize a scenario's trace behind the same fault boundary as
/// [`run_cell_on`]: a panic inside generation / estimate application / load
/// rescaling comes back as its rendered panic text. Callers that cache
/// traces separately from results (the sweep runner, the `bfsimd` trace
/// cache) use this so one poisoned scenario cannot take down its batch.
pub fn materialize_caught(scenario: &Scenario) -> Result<Trace, String> {
    catch_unwind(AssertUnwindSafe(|| scenario.materialize())).map_err(panic_message)
}

/// How much trace sharing a sweep achieved. A paper sweep is dozens of
/// (scheduler × policy) cells over a handful of scenarios; the runner
/// materializes each distinct scenario's trace exactly once and fans the
/// cells through [`run_cell_on`], so `traces_materialized` tracks
/// `distinct_scenarios`, not `cells`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepSharing {
    /// Number of cells in the sweep.
    pub cells: usize,
    /// Number of distinct scenarios (by canonical JSON) among the cells.
    pub distinct_scenarios: usize,
    /// Number of traces actually materialized — the regression counter:
    /// equals `distinct_scenarios`, never `cells`.
    pub traces_materialized: usize,
}

/// Fan `n` index-addressed jobs over `threads` workers, returning the
/// outputs in index order (indexed slots, so completion order never
/// leaks). `threads <= 1` degenerates to a plain in-order map.
fn fan_out<T: Send>(n: usize, threads: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if n == 0 {
        return Vec::new();
    }
    if threads <= 1 {
        return (0..n).map(job).collect();
    }
    let (tx, rx) = channel::unbounded::<usize>();
    for i in 0..n {
        tx.send(i).expect("queue open");
    }
    drop(tx);

    // Workers stream `(index, result)` back over a channel; the receive
    // loop fills the indexed slots, so results land in input order with no
    // lock contention on the hot path.
    let (done_tx, done_rx) = channel::unbounded::<(usize, T)>();
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            let rx = rx.clone();
            let done_tx = done_tx.clone();
            let job = &job;
            scope.spawn(move || {
                while let Ok(i) = rx.recv() {
                    if done_tx.send((i, job(i))).is_err() {
                        unreachable!("receiver open until workers finish");
                    }
                }
            });
        }
        drop(done_tx); // workers hold the remaining senders
        while let Ok((i, result)) = done_rx.recv() {
            debug_assert!(slots[i].is_none(), "item {i} delivered twice");
            slots[i] = Some(result);
        }
    });

    slots
        .into_iter()
        .map(|r| r.expect("every item completed"))
        .collect()
}

/// Run every config, in parallel, returning per-cell outcomes in input
/// order, plus the sweep's [`SweepSharing`] diagnostics. A cell whose
/// simulation panics yields `Err(CellError)` — with the offending config
/// attached — while every other cell still runs to completion.
///
/// Cells sharing a [`Scenario`] share one materialized trace: the sweep
/// first groups configs by the scenario's canonical JSON, materializes
/// each distinct trace exactly once (in parallel), then fans the cells
/// through [`run_cell_on`]. A panic during materialization is charged to
/// every cell of that scenario, as a [`CellError`] each.
///
/// `threads = None` uses the machine's available parallelism.
#[allow(clippy::result_large_err)] // see run_cell_on
pub fn run_all_checked(
    configs: &[RunConfig],
    threads: Option<NonZeroUsize>,
) -> (Vec<Result<RunResult, CellError>>, SweepSharing) {
    if configs.is_empty() {
        let sharing = SweepSharing {
            cells: 0,
            distinct_scenarios: 0,
            traces_materialized: 0,
        };
        return (Vec::new(), sharing);
    }
    let threads = threads
        .or_else(|| std::thread::available_parallelism().ok())
        .map_or(1, NonZeroUsize::get)
        .min(configs.len());

    // Group cells by scenario identity (canonical JSON, the same key the
    // service cache uses — stable and injective, so distinct scenarios
    // can never alias one trace).
    let mut key_to_group: std::collections::HashMap<String, usize> =
        std::collections::HashMap::new();
    let mut scenarios: Vec<Scenario> = Vec::new();
    let mut group_of_cell: Vec<usize> = Vec::with_capacity(configs.len());
    for config in configs {
        let key = config.scenario.canonical_json();
        let group = *key_to_group.entry(key).or_insert_with(|| {
            scenarios.push(config.scenario);
            scenarios.len() - 1
        });
        group_of_cell.push(group);
    }

    // Phase 1: materialize each distinct trace once, in parallel. The
    // counter records actual materializations — the whole point of the
    // grouping is that it never exceeds the number of distinct scenarios.
    let materialized = AtomicUsize::new(0);
    let traces: Vec<Result<Trace, String>> =
        fan_out(scenarios.len(), threads.min(scenarios.len()), |g| {
            materialized.fetch_add(1, Ordering::Relaxed);
            materialize_caught(&scenarios[g])
        });

    // Phase 2: fan the cells over the shared traces.
    let results = fan_out(configs.len(), threads, |i| {
        let config = configs[i];
        match &traces[group_of_cell[i]] {
            Ok(trace) => run_cell_on(&config, trace, SimOptions::default())
                .map(|schedule| RunResult { config, schedule }),
            Err(panic) => Err(CellError {
                config,
                panic: panic.clone(),
            }),
        }
    });

    let sharing = SweepSharing {
        cells: configs.len(),
        distinct_scenarios: scenarios.len(),
        traces_materialized: materialized.load(Ordering::Relaxed),
    };
    (results, sharing)
}

/// Run every config, in parallel, returning results in input order.
///
/// `threads = None` uses the machine's available parallelism. Panics —
/// deterministically, after the whole sweep has finished — if any cell's
/// simulation panicked, naming the offending config; use
/// [`run_all_checked`] to handle poisoned cells per cell instead.
pub fn run_all(configs: &[RunConfig], threads: Option<NonZeroUsize>) -> Vec<RunResult> {
    run_all_checked(configs, threads)
        .0
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("{e}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Scenario, TraceSource};
    use crate::driver::SchedulerKind;
    use parking_lot::Mutex;
    use sched::Policy;
    use workload::EstimateModel;

    fn sweep() -> Vec<RunConfig> {
        let scenario = Scenario::high_load(TraceSource::Ctc { jobs: 150, seed: 5 });
        let mut configs = Vec::new();
        for kind in [SchedulerKind::Conservative, SchedulerKind::Easy] {
            for policy in Policy::PAPER {
                configs.push(RunConfig {
                    scenario,
                    kind,
                    policy,
                });
            }
        }
        configs
    }

    #[test]
    fn parallel_matches_serial() {
        let configs = sweep();
        let serial = run_all(&configs, NonZeroUsize::new(1));
        let parallel = run_all(&configs, NonZeroUsize::new(4));
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.config, p.config, "order changed");
            assert_eq!(s.schedule.fingerprint(), p.schedule.fingerprint());
        }
    }

    #[test]
    fn results_preserve_input_order() {
        let configs = sweep();
        // 16 workers racing over 10 cells: completions stream back in
        // arbitrary order, the indexed slots must still land them in
        // input order.
        for threads in [None, NonZeroUsize::new(16)] {
            let results = run_all(&configs, threads);
            for (cfg, res) in configs.iter().zip(&results) {
                assert_eq!(*cfg, res.config);
            }
        }
    }

    #[test]
    fn empty_sweep() {
        assert!(run_all(&[], None).is_empty());
    }

    #[test]
    fn more_threads_than_work_is_fine() {
        let configs = sweep()[..2].to_vec();
        let results = run_all(&configs, NonZeroUsize::new(16));
        assert_eq!(results.len(), 2);
    }

    /// Serializes the panic-hook swaps below: the hook is process-global,
    /// so two tests silencing it concurrently would race on the restore.
    static HOOK_LOCK: Mutex<()> = Mutex::new(());

    /// Run `f` with panic output silenced (the tests below panic on
    /// purpose; the default hook would spam the test log).
    fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
        let _guard = HOOK_LOCK.lock();
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = f();
        std::panic::set_hook(hook);
        result
    }

    /// A config whose materialization reliably panics: `scale_to_load`
    /// asserts the target load is positive.
    fn poisoned() -> RunConfig {
        RunConfig {
            scenario: Scenario {
                source: TraceSource::Ctc { jobs: 50, seed: 1 },
                estimate: EstimateModel::Exact,
                estimate_seed: 1,
                load: Some(-1.0),
            },
            kind: SchedulerKind::Easy,
            policy: Policy::Fcfs,
        }
    }

    #[test]
    fn panicking_cell_is_isolated() {
        let mut configs = sweep();
        let bad = poisoned();
        configs.insert(2, bad);
        let (results, _) = with_quiet_panics(|| run_all_checked(&configs, NonZeroUsize::new(4)));
        assert_eq!(results.len(), configs.len());
        for (i, (cfg, res)) in configs.iter().zip(&results).enumerate() {
            match res {
                Ok(ok) => {
                    assert_eq!(*cfg, ok.config, "order changed");
                    assert_ne!(i, 2, "poisoned cell reported success");
                }
                Err(e) => {
                    assert_eq!(i, 2, "healthy cell reported a panic");
                    assert_eq!(e.config, bad, "error lost the offending config");
                    assert!(
                        e.panic.contains("target load must be positive"),
                        "unexpected panic text: {}",
                        e.panic
                    );
                    assert!(e.to_string().contains("CTC EASY/FCFS"));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "target load must be positive")]
    fn run_all_still_panics_on_poisoned_cell() {
        let result = with_quiet_panics(|| {
            std::panic::catch_unwind(|| run_all(&[poisoned()], NonZeroUsize::new(1)))
        });
        if let Err(payload) = result {
            std::panic::resume_unwind(payload);
        }
    }

    #[test]
    fn sweep_materializes_each_scenario_once() {
        // Two scenarios × (2 schedulers × |PAPER| policies): the sweep
        // must materialize exactly 2 traces, not one per cell.
        let mut configs = sweep();
        let second = Scenario::high_load(TraceSource::Sdsc { jobs: 120, seed: 9 });
        for kind in [SchedulerKind::Conservative, SchedulerKind::Easy] {
            for policy in Policy::PAPER {
                configs.push(RunConfig {
                    scenario: second,
                    kind,
                    policy,
                });
            }
        }
        let (results, sharing) = run_all_checked(&configs, NonZeroUsize::new(4));
        assert_eq!(sharing.cells, configs.len());
        assert_eq!(sharing.distinct_scenarios, 2);
        assert_eq!(
            sharing.traces_materialized, 2,
            "trace sharing regressed: {} materializations for 2 scenarios",
            sharing.traces_materialized
        );
        // Shared traces must not change any cell's schedule.
        for (config, result) in configs.iter().zip(&results) {
            let shared = result.as_ref().expect("healthy sweep");
            assert_eq!(shared.schedule.fingerprint(), config.run().fingerprint());
        }
    }

    #[test]
    fn poisoned_scenario_is_charged_to_all_its_cells() {
        // Every cell of the unmaterializable scenario gets the panic;
        // cells of healthy scenarios are untouched.
        let bad_scenario = poisoned().scenario;
        let mut configs = sweep();
        for policy in [Policy::Fcfs, Policy::Sjf] {
            configs.push(RunConfig {
                scenario: bad_scenario,
                kind: SchedulerKind::Easy,
                policy,
            });
        }
        let (results, sharing) =
            with_quiet_panics(|| run_all_checked(&configs, NonZeroUsize::new(4)));
        assert_eq!(sharing.distinct_scenarios, 2);
        assert_eq!(sharing.traces_materialized, 2);
        let healthy = configs.len() - 2;
        for (i, result) in results.iter().enumerate() {
            if i < healthy {
                assert!(result.is_ok(), "healthy cell {i} failed");
            } else {
                let err = result.as_ref().expect_err("poisoned cell succeeded");
                assert!(err.panic.contains("target load must be positive"));
                assert_eq!(err.config, configs[i]);
            }
        }
    }
}
