//! Local shard supervision: keep a fleet of `bfsimd` children alive.
//!
//! The `bfsim shards` subcommand wraps this module: it spawns one
//! `bfsimd` process per address and watches them. A child that exits is
//! restarted after a seeded decorrelated-jitter delay (the same
//! [`Backoff`] schedule the resilient client uses, so a crash-looping
//! fleet never thunders back in lockstep), under a **crash-loop
//! breaker**: a child that keeps dying young is declared broken and
//! abandoned rather than restarted forever.
//!
//! # Breaker policy
//!
//! Each child tracks a *consecutive short-lived crash* streak. An exit
//! after at least [`BreakerPolicy::stable_uptime`] of uptime resets the
//! streak (and the backoff schedule): the process had recovered, this
//! is a fresh incident. An exit before that counts against the streak;
//! once it exceeds [`BreakerPolicy::max_restarts`], the breaker opens
//! and the child is left down ([`ChildStatus::Broken`]). The decision
//! logic lives in the pure [`Breaker`] state machine so it is testable
//! without processes.
//!
//! The supervisor deliberately knows nothing about the sweep: the
//! coordinator's reprobe loop (see `coord::dispatch`) discovers a
//! respawned shard by re-handshaking it, which is what turns a SIGKILL
//! into a mid-sweep rejoin instead of a degraded run.

use crate::client::{Backoff, RetryPolicy};
use std::io;
use std::path::PathBuf;
use std::process::{Child, Command};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// When to stop restarting a crash-looping child.
#[derive(Debug, Clone, Copy)]
pub struct BreakerPolicy {
    /// Consecutive short-lived crashes tolerated before the breaker
    /// opens. (`max_restarts` restarts are attempted; the next short
    /// crash gives up.)
    pub max_restarts: u32,
    /// A run at least this long counts as recovered and resets the
    /// streak.
    pub stable_uptime: Duration,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy {
            max_restarts: 5,
            stable_uptime: Duration::from_secs(5),
        }
    }
}

/// What to do about a child that just exited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartDecision {
    /// Respawn after this delay.
    Restart(Duration),
    /// The breaker opened: leave it down.
    GiveUp,
}

/// Pure per-child restart state machine: streak counting plus the
/// jittered delay schedule. Drives [`Supervisor`]; unit-tested without
/// spawning anything.
#[derive(Debug)]
pub struct Breaker {
    policy: BreakerPolicy,
    retry: RetryPolicy,
    backoff: Backoff,
    short_crashes: u32,
}

impl Breaker {
    /// A fresh breaker. `retry` supplies the delay schedule (`base`,
    /// `cap`, `seed`; its `max_retries` is ignored — the breaker's own
    /// policy bounds restarts).
    pub fn new(policy: BreakerPolicy, retry: RetryPolicy) -> Self {
        Breaker {
            policy,
            backoff: Backoff::new(&retry),
            retry,
            short_crashes: 0,
        }
    }

    /// The child exited after `uptime`; decide its fate.
    pub fn on_exit(&mut self, uptime: Duration) -> RestartDecision {
        if uptime >= self.policy.stable_uptime {
            // It had recovered; treat this as a fresh incident with a
            // fresh delay schedule.
            self.short_crashes = 0;
            self.backoff = Backoff::new(&self.retry);
        }
        self.short_crashes += 1;
        if self.short_crashes > self.policy.max_restarts {
            return RestartDecision::GiveUp;
        }
        RestartDecision::Restart(self.backoff.next_delay())
    }
}

/// How to build the fleet.
#[derive(Debug, Clone)]
pub struct SupervisorSpec {
    /// Path to the `bfsimd` binary.
    pub bfsimd: PathBuf,
    /// One child per address, passed as `--addr`.
    pub addrs: Vec<String>,
    /// Extra arguments appended to every child's command line. The
    /// literal token `{port}` is replaced with the child's port, so one
    /// template can derive per-child paths (e.g. a cache journal per
    /// shard: `--cache-journal dir/shard-{port}.jsonl`).
    pub args: Vec<String>,
    /// Restart-delay schedule (`base`/`cap`/`seed`); the seed is
    /// decorrelated per child so siblings never restart in lockstep.
    pub retry: RetryPolicy,
    /// Crash-loop policy applied to each child independently.
    pub breaker: BreakerPolicy,
}

/// Lifecycle state of one supervised child.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChildStatus {
    /// Process is (believed) up.
    Running,
    /// Exited; waiting out the restart delay.
    Backoff,
    /// Crash-loop breaker opened; abandoned.
    Broken,
    /// Stopped by [`Supervisor::stop`].
    Stopped,
}

/// Snapshot of one child, as reported by [`Supervisor::children`].
#[derive(Debug, Clone)]
pub struct ChildView {
    /// The `--addr` this child serves.
    pub addr: String,
    /// OS pid when running.
    pub pid: Option<u32>,
    /// Current lifecycle state.
    pub status: ChildStatus,
    /// Times this child has been restarted.
    pub restarts: u64,
}

/// Final accounting returned by [`Supervisor::join`].
#[derive(Debug, Clone)]
pub struct SupervisorReport {
    /// Last observed state of every child.
    pub children: Vec<ChildView>,
}

/// One supervised child and its bookkeeping (monitor-thread private).
struct Managed {
    view: ChildView,
    child: Option<Child>,
    started: Instant,
    breaker: Breaker,
    /// When a pending restart is due.
    due: Option<Instant>,
}

/// A running fleet supervisor. Dropping the handle does *not* stop the
/// fleet — call [`Supervisor::stop`] then [`Supervisor::join`].
pub struct Supervisor {
    stop: Arc<AtomicBool>,
    state: Arc<Mutex<Vec<ChildView>>>,
    monitor: JoinHandle<SupervisorReport>,
}

impl Supervisor {
    /// Spawn the fleet and the monitor thread. Returns as soon as the
    /// first round of spawns has been *attempted* — a child that fails
    /// to exec is handled by its breaker like any other crash.
    pub fn spawn(spec: SupervisorSpec) -> io::Result<Supervisor> {
        let stop = Arc::new(AtomicBool::new(false));
        let state = Arc::new(Mutex::new(
            spec.addrs
                .iter()
                .map(|addr| ChildView {
                    addr: addr.clone(),
                    pid: None,
                    status: ChildStatus::Backoff,
                    restarts: 0,
                })
                .collect::<Vec<_>>(),
        ));
        let monitor = {
            let stop = Arc::clone(&stop);
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("shard-supervisor".into())
                .spawn(move || monitor_fleet(spec, stop, state))?
        };
        Ok(Supervisor {
            stop,
            state,
            monitor,
        })
    }

    /// Ask the monitor to stop: children are killed and reaped, then
    /// [`Supervisor::join`] returns.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Snapshot every child's current state.
    pub fn children(&self) -> Vec<ChildView> {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// True once the monitor exited (stopped, or every child broke).
    pub fn finished(&self) -> bool {
        self.monitor.is_finished()
    }

    /// Wait for the monitor to exit and collect the final report.
    pub fn join(self) -> SupervisorReport {
        self.monitor.join().unwrap_or(SupervisorReport {
            children: Vec::new(),
        })
    }
}

/// Golden-ratio step decorrelating per-child backoff seeds.
const SEED_STEP: u64 = 0x9E37_79B9_7F4A_7C15;

fn spawn_child(spec: &SupervisorSpec, addr: &str) -> io::Result<Child> {
    let port = addr.rsplit(':').next().unwrap_or(addr);
    Command::new(&spec.bfsimd)
        .arg("--addr")
        .arg(addr)
        .args(spec.args.iter().map(|arg| arg.replace("{port}", port)))
        .spawn()
}

fn monitor_fleet(
    spec: SupervisorSpec,
    stop: Arc<AtomicBool>,
    state: Arc<Mutex<Vec<ChildView>>>,
) -> SupervisorReport {
    let mut fleet: Vec<Managed> = spec
        .addrs
        .iter()
        .enumerate()
        .map(|(i, addr)| {
            let mut retry = spec.retry;
            retry.seed = retry
                .seed
                .wrapping_add(SEED_STEP.wrapping_mul(i as u64 + 1));
            Managed {
                view: ChildView {
                    addr: addr.clone(),
                    pid: None,
                    status: ChildStatus::Backoff,
                    restarts: 0,
                },
                child: None,
                started: Instant::now(),
                breaker: Breaker::new(spec.breaker, retry),
                // Due immediately: the loop below does the first spawn.
                due: Some(Instant::now()),
            }
        })
        .collect();

    let publish = |fleet: &[Managed], state: &Mutex<Vec<ChildView>>| {
        let mut views = state.lock().unwrap_or_else(|e| e.into_inner());
        *views = fleet.iter().map(|m| m.view.clone()).collect();
    };

    loop {
        if stop.load(Ordering::SeqCst) {
            for managed in &mut fleet {
                if let Some(mut child) = managed.child.take() {
                    let _ = child.kill();
                    let _ = child.wait();
                }
                managed.view.pid = None;
                managed.view.status = ChildStatus::Stopped;
            }
            publish(&fleet, &state);
            break;
        }
        for managed in &mut fleet {
            // Reap an exited child and consult its breaker.
            if let Some(child) = &mut managed.child {
                match child.try_wait() {
                    Ok(Some(status)) => {
                        let _ = managed.child.take();
                        managed.view.pid = None;
                        let uptime = managed.started.elapsed();
                        match managed.breaker.on_exit(uptime) {
                            RestartDecision::Restart(delay) => {
                                obs::warn!(target: "supervisor",
                                    "bfsimd {} exited ({status}) after {:.1}s; \
                                     restarting in {}ms",
                                    managed.view.addr, uptime.as_secs_f64(),
                                    delay.as_millis());
                                managed.view.status = ChildStatus::Backoff;
                                managed.due = Some(Instant::now() + delay);
                            }
                            RestartDecision::GiveUp => {
                                obs::warn!(target: "supervisor",
                                    "bfsimd {} is crash-looping; breaker open, giving up",
                                    managed.view.addr);
                                managed.view.status = ChildStatus::Broken;
                                managed.due = None;
                            }
                        }
                    }
                    Ok(None) => {}
                    Err(err) => {
                        obs::warn!(target: "supervisor",
                            "wait on bfsimd {} failed: {err}", managed.view.addr);
                    }
                }
            }
            // (Re)spawn when a pending restart comes due.
            if managed.child.is_none() {
                if let Some(due) = managed.due {
                    if Instant::now() >= due {
                        managed.due = None;
                        match spawn_child(&spec, &managed.view.addr) {
                            Ok(child) => {
                                managed.view.pid = Some(child.id());
                                managed.view.status = ChildStatus::Running;
                                managed.view.restarts += 1;
                                managed.started = Instant::now();
                                managed.child = Some(child);
                                obs::info!(target: "supervisor",
                                    "bfsimd {} up (pid {})",
                                    managed.view.addr,
                                    managed.view.pid.unwrap_or(0));
                            }
                            Err(err) => {
                                // Exec failure = a crash with zero uptime.
                                obs::warn!(target: "supervisor",
                                    "spawning bfsimd {} failed: {err}", managed.view.addr);
                                match managed.breaker.on_exit(Duration::ZERO) {
                                    RestartDecision::Restart(delay) => {
                                        managed.view.status = ChildStatus::Backoff;
                                        managed.due = Some(Instant::now() + delay);
                                    }
                                    RestartDecision::GiveUp => {
                                        managed.view.status = ChildStatus::Broken;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        publish(&fleet, &state);
        if fleet.iter().all(|m| m.view.status == ChildStatus::Broken) {
            obs::warn!(target: "supervisor", "every child is broken; supervisor exiting");
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    SupervisorReport {
        children: fleet.iter().map(|m| m.view.clone()).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_retry() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(40),
            seed: 42,
        }
    }

    #[test]
    fn breaker_opens_after_max_consecutive_short_crashes() {
        let policy = BreakerPolicy {
            max_restarts: 3,
            stable_uptime: Duration::from_secs(5),
        };
        let mut breaker = Breaker::new(policy, fast_retry());
        for i in 0..3 {
            match breaker.on_exit(Duration::from_millis(10)) {
                RestartDecision::Restart(delay) => {
                    assert!(delay >= Duration::from_millis(5), "restart {i}: {delay:?}");
                    assert!(delay <= Duration::from_millis(40), "restart {i}: {delay:?}");
                }
                RestartDecision::GiveUp => panic!("gave up after only {i} crashes"),
            }
        }
        assert_eq!(
            breaker.on_exit(Duration::from_millis(10)),
            RestartDecision::GiveUp
        );
    }

    #[test]
    fn stable_uptime_resets_the_streak_and_the_schedule() {
        let policy = BreakerPolicy {
            max_restarts: 2,
            stable_uptime: Duration::from_millis(100),
        };
        let mut breaker = Breaker::new(policy, fast_retry());
        let first = match breaker.on_exit(Duration::ZERO) {
            RestartDecision::Restart(d) => d,
            RestartDecision::GiveUp => panic!("gave up on first crash"),
        };
        assert!(matches!(
            breaker.on_exit(Duration::ZERO),
            RestartDecision::Restart(_)
        ));
        // A long stable run forgives the history; the streak and the
        // jitter schedule both start over.
        let after_stable = match breaker.on_exit(Duration::from_secs(1)) {
            RestartDecision::Restart(d) => d,
            RestartDecision::GiveUp => panic!("stable run must reset the streak"),
        };
        assert_eq!(
            after_stable, first,
            "reset schedule replays the same deterministic delays"
        );
        assert!(matches!(
            breaker.on_exit(Duration::ZERO),
            RestartDecision::Restart(_)
        ));
        assert_eq!(breaker.on_exit(Duration::ZERO), RestartDecision::GiveUp);
    }

    #[test]
    fn breaker_delays_are_deterministic_per_seed() {
        let policy = BreakerPolicy::default();
        let schedule = |seed: u64| -> Vec<Duration> {
            let mut retry = fast_retry();
            retry.seed = seed;
            let mut breaker = Breaker::new(policy, retry);
            (0..4)
                .map(|_| match breaker.on_exit(Duration::ZERO) {
                    RestartDecision::Restart(d) => d,
                    RestartDecision::GiveUp => panic!("default policy allows 5 restarts"),
                })
                .collect()
        };
        assert_eq!(schedule(7), schedule(7));
        assert_ne!(schedule(7), schedule(8));
    }
}
