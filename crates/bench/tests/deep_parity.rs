//! Fingerprint parity of the deep-queue bench cells.
//!
//! The CI parity gate (`bfsim bench --tiny --enforce-parity`) runs only
//! the tiny exact-estimate grid, where no job ends early and Conservative
//! never compresses. The four deep-queue cells of the full bench grid —
//! 20,000 CTC jobs at ρ = 2.2 with user estimates, Conservative under
//! FCFS/SJF/XFactor plus EASY/XFactor — are where compression and the
//! profile's fast paths do nearly all their work. This test runs them and
//! requires each schedule fingerprint to equal the one `BENCH_5.json`
//! pins, so a change to any of those paths that alters one scheduling
//! decision fails here.
//!
//! Release builds only (`cargo test -p bench --release --test
//! deep_parity`): in debug builds the per-mutation profile invariant
//! checks make the four cells take minutes.

use backfill_sim::RunConfig;
use bench::sweep::full_specs;
use serde::Deserialize;

#[derive(Deserialize)]
struct PinnedReport {
    cells: Vec<PinnedCell>,
}

#[derive(Deserialize)]
struct PinnedCell {
    label: String,
    config: RunConfig,
    fingerprint: u64,
}

#[test]
fn deep_queue_cells_match_pinned_fingerprints() {
    if cfg!(debug_assertions) {
        eprintln!("deep_parity: skipped in debug builds (run with --release)");
        return;
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_5.json");
    let text = std::fs::read_to_string(path).expect("reading BENCH_5.json");
    let pinned: PinnedReport = serde_json::from_str(&text).expect("parsing BENCH_5.json");

    // full_specs() = [paper grid, deep Conservative, deep EASY/XF].
    let cells: Vec<RunConfig> = full_specs()[1..]
        .iter()
        .flat_map(|spec| spec.expand())
        .collect();
    assert_eq!(cells.len(), 4, "the deep-queue grid changed shape");

    let trace = cells[0].scenario.materialize();
    let mut mismatches = Vec::new();
    for cell in &cells {
        assert_eq!(
            cell.scenario, cells[0].scenario,
            "deep cells share one trace"
        );
        let expected = pinned
            .cells
            .iter()
            .find(|p| p.config == *cell)
            .unwrap_or_else(|| panic!("BENCH_5.json pins no cell {}", cell.label()));
        let got = cell.run_on(&trace).fingerprint();
        eprintln!(
            "{}: fingerprint {got:#018x} (pinned {:#018x})",
            expected.label, expected.fingerprint
        );
        if got != expected.fingerprint {
            mismatches.push(expected.label.clone());
        }
    }
    assert!(
        mismatches.is_empty(),
        "fingerprints diverged from BENCH_5.json: {mismatches:?}"
    );
}
