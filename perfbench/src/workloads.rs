//! The benchmark's workloads: which cells each one runs, and where each
//! cell's reference fingerprint comes from.

use crate::reference::BENCH5_SEED7;
use backfill_sim::RunConfig;
use bench::sweep::full_specs;

/// The trace seed the repository's `BENCH_5.json` cells were run with.
pub const PINNED_SEED: u64 = 7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 42 paper cells, in-process, one at a time.
    PaperGrid,
    /// The 4 deep-queue cells, in-process, one at a time.
    DeepQueue,
    /// The 42 paper cells through `coord::run_sweep` and two daemons.
    ServedSweep,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "paper-grid" => Some(Workload::PaperGrid),
            "deep-queue" => Some(Workload::DeepQueue),
            "served-sweep" => Some(Workload::ServedSweep),
            _ => None,
        }
    }

    /// The trace seeds of the grids (same-shaped trace sets) a
    /// `--trace 0` run with `seed` rotates through: the seed itself, then
    /// seeds derived from it. How costly a grid is to simulate — and, on
    /// `served-sweep`, how evenly its cells split over the two shards —
    /// depends on its traces; rotating through several keeps a run's
    /// figures from hinging on one draw.
    pub fn grid_seeds(self, seed: u64) -> Vec<u64> {
        (0..8)
            .map(|k: u64| seed.wrapping_add(k.wrapping_mul(1_000_003)))
            .collect()
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper-grid",
            Workload::DeepQueue => "deep-queue",
            Workload::ServedSweep => "served-sweep",
        }
    }

    /// The workload's cells for trace seed `seed`, each with the
    /// fingerprint `BENCH_5.json` pins for it (only for the pinned seed).
    ///
    /// The cells are the `bfsim bench` grid (`bench::sweep::full_specs`)
    /// with the trace seed — and, on the deep-queue cells, the estimate
    /// seed — replaced by `seed`: the same grid shape on other traces.
    pub fn cells(self, seed: u64) -> (Vec<RunConfig>, Vec<Option<u64>>) {
        let mut specs = full_specs();
        for spec in &mut specs {
            spec.seeds = vec![seed];
        }
        // specs = [paper grid, hot Conservative, hot EASY/XF]; BENCH_5's
        // cells are their expansion in that order.
        let (range, estimate_seeded) = match self {
            Workload::PaperGrid | Workload::ServedSweep => (0..1, false),
            Workload::DeepQueue => (1..3, true),
        };
        let offset: usize = specs[..range.start]
            .iter()
            .map(|s| s.cell_count() as usize)
            .sum();
        let mut cells = Vec::new();
        for spec in &mut specs[range] {
            if estimate_seeded {
                spec.estimate_seeds = vec![seed];
            }
            cells.extend(spec.expand());
        }
        let expected = (0..cells.len())
            .map(|i| {
                (seed == PINNED_SEED).then(|| {
                    let (label, fingerprint) = BENCH5_SEED7[offset + i];
                    assert!(
                        label.starts_with(&cells[i].label()),
                        "cell order drifted from BENCH_5.json: {label} vs {}",
                        cells[i].label()
                    );
                    fingerprint
                })
            })
            .collect();
        (cells, expected)
    }
}
