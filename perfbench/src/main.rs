//! The repository benchmark: end-to-end and per-layer metrics of the
//! backfilling simulator on three workloads. See `README.md` beside this
//! crate for the workloads, the metrics and which layer moves which.
//!
//! ```text
//! perfbench --workload paper-grid|deep-queue|served-sweep
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with all instrumentation
//! off; `--trace 1` makes a separate instrumented run for the per-layer
//! metrics. Timings are reference-host time (see `calib`). The last line
//! of stdout is the JSON result; the exit code is nonzero when any
//! output was wrong.

mod alloc;
mod calib;
mod inproc;
mod reference;
mod report;
mod served;
mod workloads;

use backfill_sim::RunConfig;
use calib::HostSpeed;
use inproc::{CellTrace, Pass, Prepared, TracedPass};
use obs::span::{SpanRecord, ALL_PHASES};
use report::{median, ratio, tail, Report};
use sched::ProfileStats;
use served::{check_sweep, Fleet, Sweep, TempDir, SHARDS};
use service::{Client, Response, RunReply, ServiceStats};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};
use workloads::{Workload, PINNED_SEED};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Whole rounds over the run's grids measured at least, however long
/// they take; a run always ends on a whole round, so every grid weighs
/// the same.
const MIN_ROUNDS: usize = 2;
/// Repeat sweeps after each cold sweep on `served-sweep`.
const WARM_SWEEPS: usize = 3;
/// Repetitions of the short per-layer timings (materialize, plan).
const LAYER_REPS: usize = 20;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload paper-grid|deep-queue|served-sweep \
         [--seed N] [--seconds S] [--trace 0|1]"
    );
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> Args {
    let mut parsed = Args {
        workload: Workload::PaperGrid,
        seed: PINNED_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => {
                parsed.seed = value
                    .parse()
                    .unwrap_or_else(|_| usage("bad --seed (need an integer)"))
            }
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| usage("bad --seconds (need a positive number)"))
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("bad --trace (need 0 or 1)"),
                }
            }
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    parsed.workload = workload.unwrap_or_else(|| usage("--workload names no workload"));
    parsed
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--serve") {
        let journal = args.get(1).unwrap_or_else(|| usage("--serve needs a path"));
        served::serve(Path::new(journal));
    }
    let args = parse_args(&args);
    obs::span::calibrate_clock();
    let mut report = Report::default();
    // The cold sweep keeps one CPU per shard busy; everything else runs
    // on one thread.
    let lanes = match (args.workload, args.trace) {
        (Workload::ServedSweep, false) => SHARDS,
        _ => 1,
    };
    let mut host = HostSpeed::new(lanes);
    let result = match (args.workload, args.trace) {
        (Workload::ServedSweep, false) => served_e2e(&args, &mut host, &mut report),
        (_, false) => inproc_e2e(&args, &mut host, &mut report),
        (_, true) => per_layer(&args, &mut host, &mut report),
    };
    if let Err(err) = result {
        report.fail(err);
    }
    report.print(&format!(
        "perfbench workload={} seed={} seconds={} trace={}\n\
         fingerprints checked {}\n\
         host ran {:.3}x slower than the reference host (median of {} calibration marks); \
         timings below are scaled to the reference host",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.seed == PINNED_SEED {
            "against BENCH_5.json, across passes and across paths"
        } else {
            "across passes and across paths"
        },
        host.slowdown(),
        host.marks(),
    ));
    if !report.failures.is_empty() {
        std::process::exit(1);
    }
}

/// Compare `got` per cell with `want`, recording each mismatch.
fn check_fingerprints(
    report: &mut Report,
    what: &str,
    cells: &[RunConfig],
    got: &[u64],
    want: &[Option<u64>],
) {
    for ((cell, got), want) in cells.iter().zip(got).zip(want) {
        if let Some(want) = want {
            if got != want {
                report.fail(format!(
                    "{what}: {} fingerprint {got} != {want}",
                    cell.label()
                ));
            }
        }
    }
}

/// One untraced pass, checked against the first pass or, for the
/// first, against the pinned reference.
fn checked_pass(
    p: &Prepared,
    first: Option<&Pass>,
    host: &mut HostSpeed,
    report: &mut Report,
) -> Pass {
    let pass = inproc::pass(p, host, report);
    let want: Vec<Option<u64>> = match first {
        Some(first) => first.fingerprints.iter().copied().map(Some).collect(),
        None => p.expected.clone(),
    };
    check_fingerprints(
        report,
        "in-process pass",
        &p.cells,
        &pass.fingerprints,
        &want,
    );
    pass
}

/// Run another pass? Until `until`, at least `MIN_ROUNDS` rounds over
/// `grids` grids, and always to the end of a round.
fn more_passes(done: usize, grids: usize, until: Instant) -> bool {
    done < MIN_ROUNDS * grids || !done.is_multiple_of(grids) || Instant::now() < until
}

fn self_peak_rss_mb() -> f64 {
    served::vm_hwm_mb("/proc/self/status")
}

/// `--trace 0` on `paper-grid` and `deep-queue`: repeated passes, each
/// over the next of the run's grids; each pass also re-times the set-up
/// (trace materialization) of its grid.
fn inproc_e2e(args: &Args, host: &mut HostSpeed, report: &mut Report) -> Result<(), String> {
    let mut grids = Vec::new();
    let mut setup = Vec::new();
    for seed in args.workload.grid_seeds(args.seed) {
        let (cells, expected) = args.workload.cells(seed);
        let before = host.last();
        let (p, secs) = Prepared::new(cells, expected);
        let mark = host.mark();
        setup.push(secs * host.scale(before, mark));
        grids.push(p);
    }
    let until = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut passes: Vec<Pass> = Vec::new();
    while more_passes(passes.len(), grids.len(), until) {
        let k = passes.len() % grids.len();
        let before = host.last();
        let t = Instant::now();
        black_box(grids[k].materialize());
        let materialize = t.elapsed().as_secs_f64();
        let first = passes.get(k);
        let pass = checked_pass(&grids[k], first, host, report);
        setup.push(materialize * host.scale(before, before + 1));
        passes.push(pass);
    }
    // Pass j ran grid j % grids; the repeats start on a whole round.
    let g = grids.len();
    let per_pass = |passes: &[Pass], f: &dyn Fn(&Pass) -> f64| -> Vec<GridSample> {
        passes
            .iter()
            .enumerate()
            .map(|(j, x)| (j % g, f(x)))
            .collect()
    };
    let grid_cells = |passes: &[Pass]| -> Vec<CellSample> {
        let mut out = Vec::new();
        for (j, pass) in passes.iter().enumerate() {
            for (i, &ms) in pass.cell_ms.iter().enumerate() {
                out.push((j % g, i, ms));
            }
        }
        out
    };
    // Without a result cache, re-running a sweep recomputes it: the
    // "warm" figures are the repeat rounds.
    let repeats = &passes[g..];
    report.put_median("setup_s", &setup, "s");
    put_grid_mean(report, "sweep_s", &per_pass(&passes, &|x| x.sweep_s), "s");
    let eps = per_pass(&passes, &|x| x.events as f64 / x.sweep_s);
    put_grid_mean(report, "events_per_s", &eps, "1/s");
    put_cell_ms(report, &grid_cells(&passes), &grid_cells(repeats));
    put_grid_mean(
        report,
        "warm_sweep_s",
        &per_pass(repeats, &|x| x.sweep_s),
        "s",
    );
    report.put("peak_rss_mb", self_peak_rss_mb(), "MiB", 1);
    Ok(())
}

/// A sample tagged with its grid.
type GridSample = (usize, f64);

/// One cell latency sample: (grid, cell index, ms).
type CellSample = (usize, usize, f64);

/// The mean over grids of each grid's median sample. Grids differ in
/// cost with their traces: this weighs each grid alike and moves
/// smoothly with them, where a median over pooled samples jumps from
/// one grid's figures to another's.
fn grid_mean(samples: &[GridSample]) -> f64 {
    let mut by_grid: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &(grid, v) in samples {
        by_grid.entry(grid).or_default().push(v);
    }
    by_grid.values().map(|v| median(v)).sum::<f64>() / by_grid.len() as f64
}

fn put_grid_mean(report: &mut Report, name: &str, samples: &[GridSample], unit: &'static str) {
    report.put(name, grid_mean(samples), unit, samples.len());
}

/// The typical cell: per grid, the median over its cells of each cell's
/// median over passes; then [`grid_mean`]. A grid holds a few cells of
/// very different cost (four on `deep-queue`), so a median over raw
/// samples would sit in the gap between two cells and jump with their
/// extremes.
fn typical_cell_ms(samples: &[CellSample]) -> f64 {
    let mut by_cell: BTreeMap<(usize, usize), Vec<f64>> = BTreeMap::new();
    for &(grid, cell, ms) in samples {
        by_cell.entry((grid, cell)).or_default().push(ms);
    }
    let cells: Vec<GridSample> = by_cell
        .iter()
        .map(|(&(grid, _), v)| (grid, median(v)))
        .collect();
    grid_mean(&cells)
}

/// `cell_ms_p50` and `hit_ms_p50` as typical cells; `cell_ms_tail` over
/// the raw samples, as it is about the slow ones.
fn put_cell_ms(report: &mut Report, cell: &[CellSample], hit: &[CellSample]) {
    report.put("cell_ms_p50", typical_cell_ms(cell), "ms", cell.len());
    let raw: Vec<f64> = cell.iter().map(|s| s.2).collect();
    let (pct, value) = tail(&raw);
    report.put_table_only("cell_ms_tail", value, "ms", raw.len(), format!("p{pct}"));
    report.put("hit_ms_p50", typical_cell_ms(hit), "ms", hit.len());
}

/// In-process fingerprints of `cells` (validated, checked against the
/// pinned reference) for comparing served results with.
fn in_process_reference(
    w: Workload,
    seed: u64,
    host: &mut HostSpeed,
    report: &mut Report,
) -> Vec<u64> {
    let (cells, expected) = w.cells(seed);
    let (p, _) = Prepared::new(cells, expected);
    checked_pass(&p, None, host, report).fingerprints
}

/// `--trace 0` on `served-sweep`: per pass, over the next of the run's
/// grids, fresh daemons, one cold sweep, `WARM_SWEEPS` repeat sweeps,
/// then per-cell submit latencies.
fn served_e2e(args: &Args, host: &mut HostSpeed, report: &mut Report) -> Result<(), String> {
    let mut grids = Vec::new();
    for seed in args.workload.grid_seeds(args.seed) {
        let (cells, _) = args.workload.cells(seed);
        let reference = in_process_reference(args.workload, seed, host, report);
        let plan = coord::Plan::new(&cells, SHARDS);
        grids.push((cells, reference, plan));
    }
    let until = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut setup, mut cold, mut warm, mut eps, mut rss) =
        (vec![], vec![], vec![], vec![], vec![]);
    let (mut miss_ms, mut hit_ms): (Vec<CellSample>, Vec<CellSample>) = (vec![], vec![]);
    while more_passes(cold.len(), grids.len(), until) {
        let grid = cold.len() % grids.len();
        let (cells, reference, plan) = &grids[grid];
        let dir = TempDir::new(&format!("pass{}", cold.len()))?;
        let before = host.last();
        let t0 = Instant::now();
        let fleet = Fleet::start(&dir.0)?;
        let started = t0.elapsed().as_secs_f64();
        let first = served::sweep(&fleet, cells, &dir.0.join("sweep-cold.jsonl"), false)?;
        let after = host.mark();
        let scale = host.scale(before, after);
        check_sweep(report, "cold sweep", cells, &first, reference, false);
        let events: u64 = first.outcome.cells.iter().map(|c| c.report.events).sum();
        setup.push(started * scale);
        cold.push((grid, first.secs * scale));
        eps.push((grid, events as f64 / (first.secs * scale)));

        let mut repeats = Vec::new();
        for k in 0..WARM_SWEEPS {
            let again = served::sweep(
                &fleet,
                cells,
                &dir.0.join(format!("sweep-{k}.jsonl")),
                false,
            )?;
            check_sweep(report, "warm sweep", cells, &again, reference, true);
            repeats.push(again.secs);
        }
        let mark = host.mark();
        warm.extend(repeats.iter().map(|s| (grid, s * host.scale(after, mark))));

        // Submit latency, one client, one request at a time: each cell
        // once to the shard that has not run it (a cache miss) and once
        // to the shard that has (a hit).
        let mut clients = Vec::new();
        for addr in fleet.addrs() {
            clients.push(Client::connect(addr.as_str()).map_err(|e| format!("{addr}: {e}"))?);
        }
        let mut probes: Vec<(usize, bool, f64, usize)> = Vec::new();
        let mut since = 0.0;
        for (i, cell) in cells.iter().enumerate() {
            let home = plan.home[plan.input_map[i]];
            for (shard, cached) in [(1 - home, false), (home, true)] {
                report.attempted += 1;
                let t = Instant::now();
                let reply = clients[shard].submit(cell);
                let secs = t.elapsed().as_secs_f64();
                since += secs;
                match reply {
                    Ok(reply)
                        if reply.cached == cached && reply.report.fingerprint == reference[i] =>
                    {
                        probes.push((i, cached, secs * 1e3, host.last()))
                    }
                    Ok(reply) => report.fail(format!(
                        "probe {}: cached={} fingerprint {} (want cached={cached}, {})",
                        cell.label(),
                        reply.cached,
                        reply.report.fingerprint,
                        reference[i]
                    )),
                    Err(err) => report.fail(format!("probe {}: {err}", cell.label())),
                }
            }
            if since >= inproc::CHUNK.as_secs_f64() || i + 1 == cells.len() {
                host.mark();
                since = 0.0;
            }
        }
        for (i, cached, ms, mark) in probes {
            let sample = (grid, i, ms * host.scale(mark, mark + 1));
            if cached {
                hit_ms.push(sample);
            } else {
                miss_ms.push(sample);
            }
        }
        drop(clients);
        let stats = fleet.stats()?;
        if stats.shed > 0 || stats.failed > 0 {
            report.fail(format!(
                "daemons shed {} and failed {} submits",
                stats.shed, stats.failed
            ));
        }
        rss.push(self_peak_rss_mb() + fleet.peak_rss_mb());
        fleet.stop();
    }
    report.put_median("setup_s", &setup, "s");
    put_grid_mean(report, "sweep_s", &cold, "s");
    put_grid_mean(report, "events_per_s", &eps, "1/s");
    put_cell_ms(report, &miss_ms, &hit_ms);
    put_grid_mean(report, "warm_sweep_s", &warm, "s");
    report.put_median("peak_rss_mb", &rss, "MiB");
    Ok(())
}

/// `--trace 1`: the per-layer breakdown, on any workload. In-process
/// untraced and traced passes over the workload's cells, then one
/// untraced and one traced served pass over them.
fn per_layer(args: &Args, host: &mut HostSpeed, report: &mut Report) -> Result<(), String> {
    let w = args.workload;
    let (cells, expected) = w.cells(args.seed);
    let (p, _) = Prepared::new(cells.clone(), expected);
    let before = host.last();
    let materialize: Vec<f64> = (0..LAYER_REPS)
        .map(|_| {
            let t = Instant::now();
            black_box(p.materialize());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let mark = host.mark();
    let materialize: Vec<f64> = materialize
        .iter()
        .map(|ms| ms * host.scale(before, mark))
        .collect();
    report.put_median("workload.materialize_ms", &materialize, "ms");

    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    // Untraced and traced passes alternate, so drift over the run falls
    // on both alike.
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<TracedPass> = Vec::new();
    while traced.len() < 2 || start.elapsed() < budget * 3 / 5 {
        plain.push(checked_pass(&p, plain.first(), host, report));
        let pass = inproc::traced_pass(&p, host, report);
        let got: Vec<u64> = pass.cells.iter().map(|c| c.fingerprint).collect();
        let want: Vec<Option<u64>> = plain[0].fingerprints.iter().copied().map(Some).collect();
        check_fingerprints(report, "traced pass", &cells, &got, &want);
        if let Some(first) = traced.first() {
            for ((cell, a), b) in cells.iter().zip(&first.cells).zip(&pass.cells) {
                if a.counts != b.counts {
                    report.fail(format!(
                        "{}: exact counts differ between traced passes: {:?} vs {:?}",
                        cell.label(),
                        a.counts,
                        b.counts
                    ));
                }
            }
        }
        traced.push(pass);
    }
    in_process_layers(report, &cells, &traced);

    let plain_sweep: Vec<f64> = plain.iter().map(|x| x.sweep_s).collect();
    let traced_sweep: Vec<f64> = traced.iter().map(|x| x.sweep_s).collect();
    let served = served_layers(report, &cells, &plain[0].fingerprints, host)?;
    let overhead = if w == Workload::ServedSweep {
        served.traced_cold_s / served.plain_cold_s - 1.0
    } else {
        median(&traced_sweep) / median(&plain_sweep) - 1.0
    };
    report.put("trace_overhead_frac", overhead, "fraction", 2);
    Ok(())
}

/// Per-layer metrics from the traced in-process passes. Timings are
/// the median over passes of a per-pass figure; counts come from the
/// first pass (every pass repeats them exactly).
fn in_process_layers(report: &mut Report, cells: &[RunConfig], traced: &[TracedPass]) {
    let n = cells.len() as f64;
    let passes = traced.len();
    let per_pass = |f: &dyn Fn(&TracedPass) -> f64| -> Vec<f64> { traced.iter().map(f).collect() };
    let sum = |pass: &TracedPass, f: &dyn Fn(&CellTrace) -> f64| -> f64 {
        pass.cells.iter().map(f).sum()
    };
    let events = |pass: &TracedPass| sum(pass, &|c| c.counts.events as f64);

    report.put_median(
        "driver.simulate_ms",
        &per_pass(&|x| sum(x, &|c| c.simulate_ns * c.scale) / n / 1e6),
        "ms",
    );
    report.put_median(
        "driver.ns_per_event",
        &per_pass(&|x| sum(x, &|c| c.simulate_ns * c.scale) / events(x)),
        "ns",
    );
    for (k, phase) in ALL_PHASES.iter().enumerate() {
        report.put_median(
            &format!("phase.{}_ns", phase.name()),
            &per_pass(&|x| sum(x, &|c| c.phase_ns[k] * c.scale) / events(x)),
            "ns/event",
        );
    }
    report.put_median(
        "coverage.phases",
        &per_pass(&|x| sum(x, &|c| c.top_level_ns) / sum(x, &|c| c.simulate_ns)),
        "fraction",
    );
    report.put_median(
        "metrics.report_ms",
        &per_pass(&|x| sum(x, &|c| c.report_ns * c.scale) / n / 1e6),
        "ms",
    );
    report.put_median(
        "canon.hash_us",
        &per_pass(&|x| sum(x, &|c| c.hash_ns * c.scale) / n / 1e3),
        "us",
    );
    report.put_median(
        "coverage.in_process",
        &per_pass(&|x| sum(x, &|c| c.simulate_ns + c.report_ns) / 1e9 / x.raw_sweep_s),
        "fraction",
    );

    let first = &traced[0];
    let mut stats = ProfileStats::default();
    for cell in &first.cells {
        if let Some(s) = &cell.counts.profile {
            stats.absorb(s);
        }
    }
    let ev = events(first);
    let mut count = |name: &str, v: u64| report.put(name, v as f64, "count", passes);
    count("sched.find_anchor_calls", stats.find_anchor_calls);
    count("sched.tree_descents", stats.tree_descents);
    count("sched.tree_nodes_visited", stats.tree_nodes_visited);
    count("sched.tree_rebuilds", stats.tree_rebuilds);
    count("sched.segments_visited", stats.segments_visited);
    count("sched.compress_passes", stats.compress_passes);
    count("sched.queue_sorts", stats.queue_sorts);
    count("sched.reserves", stats.reserves);
    count("sched.releases", stats.releases);
    count("sched.peak_segments", stats.peak_segments);
    report.put(
        "sched.anchors_per_event",
        stats.find_anchor_calls as f64 / ev,
        "count/event",
        passes,
    );
    report.put(
        "sched.fits_hit_ratio",
        ratio(
            stats.fits_cache_hits as f64,
            (stats.fits_cache_hits + stats.fits_cache_misses) as f64,
        ),
        "fraction",
        passes,
    );
    report.put_median(
        "alloc.per_event",
        &per_pass(&|x| sum(x, &|c| c.alloc_calls as f64) / events(x)),
        "count/event",
    );
    report.put_median(
        "alloc.bytes_per_event",
        &per_pass(&|x| sum(x, &|c| c.alloc_bytes as f64) / events(x)),
        "B/event",
    );

    println!("per-cell counts (events and sched.* identical in each of {passes} traced passes):");
    for (cell, c) in cells.iter().zip(&first.cells) {
        let s = c.counts.profile.unwrap_or_default();
        println!(
            "  count {:<28} events={} find_anchor_calls={} tree_descents={} \
             segments_visited={} compress_passes={} peak_segments={} alloc.calls={} alloc.bytes={}",
            cell.label(),
            c.counts.events,
            s.find_anchor_calls,
            s.tree_descents,
            s.segments_visited,
            s.compress_passes,
            s.peak_segments,
            c.alloc_calls,
            c.alloc_bytes
        );
    }
}

/// What the served half of the traced run hands back: cold-sweep wall
/// times, reference-host seconds.
struct ServedLayers {
    plain_cold_s: f64,
    traced_cold_s: f64,
}

/// One served pass of the per-layer run: fresh daemons, a cold sweep
/// and one warm sweep.
struct ServedPass {
    cold: Sweep,
    warm: Sweep,
    /// Factor to reference-host time for this pass.
    scale: f64,
    /// Journal appends and cache-journal bytes after the cold sweep.
    journal: [u64; 2],
    stats: ServiceStats,
}

fn served_pass(
    report: &mut Report,
    cells: &[RunConfig],
    reference: &[u64],
    spans: bool,
    host: &mut HostSpeed,
) -> Result<ServedPass, String> {
    let dir = TempDir::new(if spans { "traced" } else { "plain" })?;
    let before = host.last();
    let fleet = Fleet::start(&dir.0)?;
    let cold = served::sweep(&fleet, cells, &dir.0.join("sweep-cold.jsonl"), spans)?;
    check_sweep(report, "cold sweep", cells, &cold, reference, false);
    // One sweep-journal record and one cache-journal record per cell.
    let appends = cold.journal_appends + fleet.journal_appends()?;
    let warm = served::sweep(&fleet, cells, &dir.0.join("sweep-warm.jsonl"), spans)?;
    check_sweep(report, "warm sweep", cells, &warm, reference, true);
    let stats = fleet.stats()?;
    let journals = fleet.journals.clone();
    fleet.stop();
    let after = host.mark();
    let scale = host.scale(before, after);
    // The cache journals hold canonical configs and reports only, so
    // their size is exact; sweep journals carry wall times and are not.
    let bytes: u64 = journals
        .iter()
        .map(|j| std::fs::metadata(j).map_or(0, |m| m.len()))
        .sum();
    Ok(ServedPass {
        cold,
        warm,
        scale,
        journal: [appends, bytes],
        stats,
    })
}

/// Every span of a sweep, from the coordinator and each shard.
fn all_spans(sweep: &Sweep) -> Vec<&SpanRecord> {
    sweep
        .outcome
        .spans
        .iter()
        .flat_map(|s| s.spans.iter())
        .collect()
}

/// Per-layer metrics of the service and coordinator layers.
fn served_layers(
    report: &mut Report,
    cells: &[RunConfig],
    reference: &[u64],
    host: &mut HostSpeed,
) -> Result<ServedLayers, String> {
    let before = host.last();
    let plan_ms: Vec<f64> = (0..LAYER_REPS)
        .map(|_| {
            let t = Instant::now();
            black_box(coord::Plan::new(black_box(cells), SHARDS));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let mark = host.mark();
    let plan_ms: Vec<f64> = plan_ms
        .iter()
        .map(|ms| ms * host.scale(before, mark))
        .collect();
    report.put_median("coord.plan_ms", &plan_ms, "ms");

    let plain = served_pass(report, cells, reference, false, host)?;
    let traced = served_pass(report, cells, reference, true, host)?;
    obs::span::set_enabled(false);
    if traced.journal != plain.journal {
        report.fail(format!(
            "journal counts differ between two served passes: {:?} vs {:?}",
            traced.journal, plain.journal
        ));
    }
    let n = cells.len();
    let stats = traced.stats;
    report.put(
        "coord.steals",
        traced.cold.outcome.steals as f64,
        "count",
        1,
    );
    report.put(
        "coord.requeues",
        traced.cold.outcome.requeues as f64,
        "count",
        1,
    );
    report.put("journal.appends", traced.journal[0] as f64, "count", 2);
    report.put("journal.bytes", traced.journal[1] as f64, "B", 2);
    report.put(
        "service.cache_hit_ratio",
        ratio(
            stats.cache_hits as f64,
            (stats.cache_hits + stats.cache_misses) as f64,
        ),
        "fraction",
        2 * n,
    );
    report.put("service.shed", stats.shed as f64, "count", 2 * n);
    if stats.shed > 0 {
        report.fail(format!("daemons shed {} submits", stats.shed));
    }
    let reply_bytes: Vec<f64> = traced
        .cold
        .outcome
        .cells
        .iter()
        .map(|c| {
            let frame = Response::Run(RunReply {
                config_hash: c.config_hash,
                cached: c.cached,
                wall_ms: c.wall_ms,
                report: c.report.clone(),
            });
            serde_json::to_string(&frame).map_or(0.0, |s| s.len() as f64 + 1.0)
        })
        .collect();
    report.put_median("service.reply_bytes", &reply_bytes, "B");

    // Span self time: duration minus the durations of the spans that
    // name it as parent. Daemon-side spans parent onto the coordinator's
    // `attempt` span, beside the client's own `client.attempt` span, so
    // the client's self time is its duration minus the daemon's
    // `cache.miss` span (wire, encoding, request parsing, the report).
    let scale = traced.scale;
    let spans = all_spans(&traced.cold);
    let mut children: HashMap<u64, u64> = HashMap::new();
    for s in &spans {
        *children.entry(s.parent_id).or_default() += s.dur_us;
    }
    let durations = |spans: &[&SpanRecord], name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us as f64 / 1e3 * scale)
            .collect()
    };
    let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);
    let cell_self: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "cell")
        .map(|s| {
            let own = s
                .dur_us
                .saturating_sub(children.get(&s.span_id).copied().unwrap_or(0));
            own as f64 / 1e3 * scale
        })
        .collect();
    let attempt = durations(&spans, "client.attempt");
    let miss = durations(&spans, "cache.miss");
    let wait = durations(&spans, "pool.wait");
    let pool_run = durations(&spans, "pool.run");
    // The daemon's `cache.hit` span is a zero-length marker, so a hit's
    // cost is read from the client's side of the warm sweep.
    let warm_attempt = durations(&all_spans(&traced.warm), "client.attempt");
    let attempt_self = attempt.iter().sum::<f64>() - miss.iter().sum::<f64>();
    report.put("service.submit_ms", mean(&attempt), "ms", attempt.len());
    report.put("span.cell.self_ms", mean(&cell_self), "ms", cell_self.len());
    report.put(
        "span.client.attempt.self_ms",
        ratio(attempt_self, attempt.len() as f64),
        "ms",
        attempt.len(),
    );
    report.put("span.pool.wait_ms", mean(&wait), "ms", wait.len());
    report.put("span.pool.run_ms", mean(&pool_run), "ms", pool_run.len());
    report.put(
        "span.cache.hit_ms",
        mean(&warm_attempt),
        "ms",
        warm_attempt.len(),
    );
    report.put("span.cache.miss_ms", mean(&miss), "ms", miss.len());
    report.put(
        "coverage.served",
        ratio(miss.iter().sum(), attempt.iter().sum()),
        "fraction",
        attempt.len(),
    );
    // Against the cold sweep its spans came from: an untraced sweep at
    // another time would carry the host's drift between the two.
    let traced_cold_s = traced.cold.secs * scale;
    let run_per_shard = pool_run.iter().sum::<f64>() / 1e3 / SHARDS as f64;
    report.put(
        "coord.overhead_frac",
        traced_cold_s / run_per_shard - 1.0,
        "fraction",
        pool_run.len(),
    );
    if cell_self.len() != n || attempt.len() != n || pool_run.len() != n {
        report.fail(format!(
            "traced cold sweep recorded {} cell, {} client.attempt and {} pool.run spans for {n} cells",
            cell_self.len(),
            attempt.len(),
            pool_run.len()
        ));
    }
    Ok(ServedLayers {
        plain_cold_s: plain.cold.secs * plain.scale,
        traced_cold_s,
    })
}
