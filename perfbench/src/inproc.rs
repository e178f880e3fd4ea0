//! In-process passes: every cell simulated on this thread, one at a time,
//! through the same entry points `run_all` uses. Schedule validation runs
//! outside the timed regions.

use crate::calib::HostSpeed;
use crate::report::Report;
use backfill_sim::prelude::Trace;
use backfill_sim::{simulate_observed, RunConfig, Scenario, SimOptions};
use obs::span::{Phase, ALL_PHASES, NESTED_SAMPLE, PHASE_COUNT};
use sched::ProfileStats;
use service::RunReport;
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// A workload's cells with their traces materialized.
pub struct Prepared {
    pub cells: Vec<RunConfig>,
    /// BENCH_5 reference fingerprint per cell (pinned seed only).
    pub expected: Vec<Option<u64>>,
    traces: Vec<Trace>,
    trace_of: Vec<usize>,
}

impl Prepared {
    /// Materialize every distinct scenario once (`Scenario::materialize`);
    /// returns the set-up and the seconds it took.
    pub fn new(cells: Vec<RunConfig>, expected: Vec<Option<u64>>) -> (Prepared, f64) {
        let t0 = Instant::now();
        let mut scenarios: Vec<Scenario> = Vec::new();
        let mut traces = Vec::new();
        let mut trace_of = Vec::with_capacity(cells.len());
        for cell in &cells {
            let index = match scenarios.iter().position(|s| *s == cell.scenario) {
                Some(index) => index,
                None => {
                    scenarios.push(cell.scenario);
                    traces.push(cell.scenario.materialize());
                    traces.len() - 1
                }
            };
            trace_of.push(index);
        }
        let secs = t0.elapsed().as_secs_f64();
        let prepared = Prepared {
            cells,
            expected,
            traces,
            trace_of,
        };
        (prepared, secs)
    }

    fn trace(&self, i: usize) -> &Trace {
        &self.traces[self.trace_of[i]]
    }

    /// Materialize every distinct scenario again (the set-up's work).
    pub fn materialize(&self) -> Vec<Trace> {
        let mut seen: Vec<usize> = Vec::new();
        let mut out = Vec::new();
        for (i, cell) in self.cells.iter().enumerate() {
            if !seen.contains(&self.trace_of[i]) {
                seen.push(self.trace_of[i]);
                out.push(cell.scenario.materialize());
            }
        }
        out
    }
}

/// One untraced pass over every cell. Times are reference-host time
/// (see `calib`).
pub struct Pass {
    /// Σ timed cell sections (simulate + report), seconds.
    pub sweep_s: f64,
    pub events: u64,
    pub cell_ms: Vec<f64>,
    pub fingerprints: Vec<u64>,
}

/// Measured work between two calibration marks.
pub const CHUNK: Duration = Duration::from_millis(250);

/// Run every cell once: `RunConfig::run_on`, then
/// `RunReport::from_schedule`, timed together; validation untimed. A
/// calibration mark follows every `CHUNK` of cells and the pass.
pub fn pass(p: &Prepared, host: &mut HostSpeed, report: &mut Report) -> Pass {
    let mut events = 0;
    let mut raw = Vec::with_capacity(p.cells.len());
    let mut fingerprints = Vec::with_capacity(p.cells.len());
    let mut since = Duration::ZERO;
    for (i, cell) in p.cells.iter().enumerate() {
        let t0 = Instant::now();
        let schedule = cell.run_on(p.trace(i));
        let run_report = black_box(RunReport::from_schedule(cell, &schedule));
        let dt = t0.elapsed();
        since += dt;
        raw.push((dt, host.last()));
        report.attempted += 1;
        if let Err(err) = schedule.validate() {
            report.fail(format!("{}: invalid schedule: {err}", cell.label()));
        }
        events += run_report.events;
        fingerprints.push(schedule.fingerprint());
        if since >= CHUNK || i + 1 == p.cells.len() {
            host.mark();
            since = Duration::ZERO;
        }
    }
    let cell_ms: Vec<f64> = raw
        .iter()
        .map(|&(dt, mark)| dt.as_secs_f64() * 1e3 * host.scale(mark, mark + 1))
        .collect();
    Pass {
        sweep_s: cell_ms.iter().sum::<f64>() / 1e3,
        events,
        cell_ms,
        fingerprints,
    }
}

/// Exact per-cell counts: they must repeat exactly from pass to pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub events: u64,
    pub profile: Option<ProfileStats>,
}

/// What one traced cell measured.
pub struct CellTrace {
    pub simulate_ns: f64,
    pub report_ns: f64,
    pub hash_ns: f64,
    /// Nanoseconds per phase (nested phases scaled up by their sampling).
    pub phase_ns: [f64; PHASE_COUNT],
    pub top_level_ns: f64,
    /// Factor to reference-host time for this cell's timings.
    pub scale: f64,
    pub counts: Counts,
    /// Allocation calls and bytes during the simulation. Not exact: the
    /// schedulers' `HashMap`s hash with a random seed per map, which
    /// moves their rehash points by a call or so from run to run.
    pub alloc_calls: u64,
    pub alloc_bytes: u64,
    pub fingerprint: u64,
}

/// One traced pass. Cell timings are raw; `CellTrace::scale` turns
/// them into reference-host time.
pub struct TracedPass {
    /// Wall time of the pass minus its untimed work, reference-host
    /// seconds.
    pub sweep_s: f64,
    /// The same, raw.
    pub raw_sweep_s: f64,
    pub cells: Vec<CellTrace>,
}

/// `RunConfig::content_hash` calls per cell in the canon timing: one
/// call takes a few microseconds, too short to time alone.
const HASH_REPS: u32 = 64;

/// Run every cell once with per-phase timing (`SimOptions::with_phases`)
/// and allocation counting on, timing each layer's entry point.
pub fn traced_pass(p: &Prepared, host: &mut HostSpeed, report: &mut Report) -> TracedPass {
    let start = Instant::now();
    let mut untimed = Duration::ZERO;
    let mut cells = Vec::with_capacity(p.cells.len());
    let mut marks = Vec::with_capacity(p.cells.len());
    let mut since = Duration::ZERO;
    for (i, cell) in p.cells.iter().enumerate() {
        marks.push(host.last());
        let phases = Rc::new(RefCell::new(obs::PhaseAcc::new()));
        crate::alloc::start();
        let t0 = Instant::now();
        let (schedule, _) = simulate_observed(
            p.trace(i),
            cell.kind,
            cell.policy,
            SimOptions::with_phases(phases.clone()),
        );
        let simulate = t0.elapsed();
        let (alloc_calls, alloc_bytes) = crate::alloc::stop();
        let t1 = Instant::now();
        let run_report = black_box(RunReport::from_schedule(cell, &schedule));
        let report_time = t1.elapsed();

        // Everything below stays out of the pass wall time.
        let u0 = Instant::now();
        for _ in 0..HASH_REPS {
            black_box(black_box(cell).content_hash());
        }
        let hash = u0.elapsed() / HASH_REPS;
        report.attempted += 1;
        if let Err(err) = schedule.validate() {
            report.fail(format!("{}: invalid schedule: {err}", cell.label()));
        }
        let acc = phases.borrow();
        let phase_ns = std::array::from_fn(|k| {
            let phase: Phase = ALL_PHASES[k];
            let scale = if phase.top_level() {
                1.0
            } else {
                NESTED_SAMPLE as f64
            };
            acc.histogram(phase).sum() as f64 * scale
        });
        cells.push(CellTrace {
            simulate_ns: simulate.as_nanos() as f64,
            report_ns: report_time.as_nanos() as f64,
            hash_ns: hash.as_nanos() as f64,
            phase_ns,
            top_level_ns: acc.top_level_sum_ns() as f64,
            scale: 1.0,
            counts: Counts {
                events: run_report.events,
                profile: schedule.profile_stats,
            },
            alloc_calls,
            alloc_bytes,
            fingerprint: schedule.fingerprint(),
        });
        drop(acc);
        since += simulate + report_time;
        if since >= CHUNK || i + 1 == p.cells.len() {
            host.mark();
            since = Duration::ZERO;
        }
        untimed += u0.elapsed();
    }
    let mut sweep_s = 0.0;
    for (cell, mark) in cells.iter_mut().zip(marks) {
        cell.scale = host.scale(mark, mark + 1);
        sweep_s += (cell.simulate_ns + cell.report_ns) / 1e9 * cell.scale;
    }
    let raw_sweep_s = (start.elapsed() - untimed).as_secs_f64();
    let raw_busy: f64 = cells
        .iter()
        .map(|c| (c.simulate_ns + c.report_ns) / 1e9)
        .sum();
    TracedPass {
        // The pass's untracked remainder (loop and bookkeeping) scales
        // with the pass's mean factor.
        sweep_s: sweep_s * raw_sweep_s / raw_busy,
        raw_sweep_s,
        cells,
    }
}
