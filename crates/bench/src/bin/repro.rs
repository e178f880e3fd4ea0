//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [EXPERIMENT...] [--quick] [--jobs N] [--seeds a,b,c] [--load RHO] [--csv DIR]
//!       [--log-level SPEC] [--log-json] [--log-elapsed]
//! ```
//!
//! `repro --help` prints the authoritative flag and experiment lists,
//! generated from the flag table below. With no experiment named, every
//! experiment runs, in paper order; per-experiment timing lines are
//! logged at `info`.

use bench::experiments::{ablations, accurate, estimates, robustness, workload_tables, Opts};
use metrics::Table;
use table::*;

/// The flag table; `obs::cli` generates `--help` from it.
#[rustfmt::skip]
mod table {
    use obs::cli::{list, number, text, Command, Flag, Group, Program, LOG};

    pub static QUICK: Flag<bool> = Flag::switch("--quick", "a small configuration for smoke runs");
    pub static JOBS: Flag<usize> = Flag::new("--jobs", "N", "", "jobs per trace, at least 2 (default 20000; 2000 with --quick)", |raw| {
        number(raw).and_then(|n| if n >= 2 { Ok(n) } else { Err("need an integer >= 2: scaling to --load needs two arrivals".to_string()) })
    });
    pub static SEEDS: Flag<Vec<u64>> = Flag::new("--seeds", "a,b,c", "", "trace seeds (default 42,1337,2002; 42 with --quick)", list);
    pub static LOAD: Flag<f64> = Flag::new("--load", "RHO", "0.9", "offered load of the high-load condition", |raw| {
        number(raw).and_then(|rho| backfill_sim::check_load(rho).map(|()| rho))
    });
    pub static CSV: Flag<String> = Flag::new("--csv", "DIR", "", "also write each table as a CSV file into DIR", text);

    static RUN: Group = Group { title: "run", flags: &[&QUICK, &JOBS, &SEEDS, &LOAD, &CSV] };
    pub static REPRO: Program = Program {
        name: "repro",
        about: "Regenerate the paper's tables and figures; with no EXPERIMENT, all of them in paper order.\n\
                EXPERIMENT: table1 table2 table3 fig1 fig2 table4 equiv table5 table6 fig3 fig4 table7\n\
                normal-load load-sweep selective slack depth compression policies fairness shaking flurry preemption",
        commands: &[Command { name: "", about: "", operands: "[EXPERIMENT...]", groups: &[&RUN, &LOG] }],
    };
}

fn die(msg: &str) -> ! {
    obs::error!(target: "repro", "{msg}");
    std::process::exit(2);
}

type Experiment = fn(&Opts) -> Vec<Table>;

/// Every experiment, in paper order.
const EXPERIMENTS: [(&str, Experiment); 23] = [
    ("table1", |_| vec![workload_tables::table1()]),
    ("table2", |o| vec![workload_tables::table2(o)]),
    ("table3", |o| vec![workload_tables::table3(o)]),
    ("fig1", accurate::fig1),
    ("fig2", accurate::fig2),
    ("table4", |o| vec![accurate::table4(o)]),
    ("equiv", |o| vec![accurate::equivalence(o)]),
    ("table5", |o| vec![estimates::tables5_6(o).remove(0)]),
    ("table6", |o| vec![estimates::tables5_6(o).remove(1)]),
    ("fig3", estimates::fig3),
    ("fig4", |o| vec![estimates::fig4(o)]),
    ("table7", |o| vec![estimates::table7(o)]),
    ("normal-load", |o| vec![accurate::normal_vs_high_load(o)]),
    ("load-sweep", |o| {
        vec![ablations::load_sweep(o, &[0.5, 0.6, 0.7, 0.8, 0.9, 1.0])]
    }),
    ("selective", |o| {
        vec![ablations::selective_sweep(o, &[1.5, 2.0, 3.0, 5.0, 10.0])]
    }),
    ("slack", |o| {
        vec![ablations::slack_sweep(o, &[0.0, 0.5, 1.0, 2.0, 5.0, 10.0])]
    }),
    ("depth", |o| {
        vec![ablations::depth_sweep(o, &[1, 2, 4, 8, 16, 64])]
    }),
    ("compression", |o| vec![ablations::compression_ablation(o)]),
    ("policies", |o| vec![ablations::policy_ablation(o)]),
    ("fairness", |o| vec![ablations::fairness_ablation(o)]),
    ("shaking", |o| {
        vec![robustness::shaking(o, 10, simcore::SimSpan::from_mins(3))]
    }),
    ("flurry", |o| vec![robustness::flurry(o, 500)]),
    ("preemption", |o| {
        vec![ablations::preemption_sweep(o, &[1.5, 2.0, 5.0, 20.0])]
    }),
];

fn main() {
    let a = obs::cli::parse(&REPRO, std::env::args().skip(1).collect());
    let mut opts = if a.on(&QUICK) {
        Opts::quick()
    } else {
        Opts::default()
    };
    opts.jobs = a.opt(&JOBS).unwrap_or(opts.jobs);
    opts.seeds = a.opt(&SEEDS).unwrap_or(opts.seeds);
    opts.load = a.get(&LOAD);
    let experiments: Vec<(&str, Experiment)> = if a.operands.is_empty() {
        EXPERIMENTS.to_vec()
    } else {
        let named = |name: &String| EXPERIMENTS.iter().find(|(e, _)| e == name).copied();
        let unknown = |name: &String| die(&format!("unknown experiment {name:?} (try --help)"));
        let found = a
            .operands
            .iter()
            .map(|n| named(n).unwrap_or_else(|| unknown(n)));
        found.collect()
    };
    let csv_dir = a.opt(&CSV);
    if let Some(dir) = &csv_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| die(&format!("--csv {dir}: {e}")));
    }
    println!(
        "# backfill-sim repro — jobs={} seeds={:?} load={}\n",
        opts.jobs, opts.seeds, opts.load
    );
    for (name, experiment) in experiments {
        let t0 = std::time::Instant::now();
        let tables = experiment(&opts);
        for (i, table) in tables.iter().enumerate() {
            println!("{}", table.render());
            if let Some(dir) = &csv_dir {
                let suffix = if tables.len() > 1 {
                    format!("-{}", i + 1)
                } else {
                    String::new()
                };
                let path = format!("{dir}/{name}{suffix}.csv");
                std::fs::write(&path, table.to_csv())
                    .unwrap_or_else(|e| die(&format!("writing {path}: {e}")));
            }
        }
        obs::info!(target: "repro", "{name}: {:.1?}", t0.elapsed());
    }
}
