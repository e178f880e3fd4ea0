//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [EXPERIMENT...] [--quick] [--jobs N] [--seeds a,b,c] [--load RHO] [--csv DIR]
//!       [--log-level SPEC] [--log-json] [--log-elapsed]
//! ```
//!
//! With no experiment names, everything runs (in paper order). `--quick`
//! uses a small configuration for smoke runs. `--csv DIR` additionally
//! writes each table as a CSV file into `DIR`. `--log-level` takes the
//! `BFSIM_LOG` filter grammar and wins over the environment; per-
//! experiment timing lines are logged at `info`. `--log-json` and
//! `--log-elapsed` work as for `bfsim`.
//!
//! Experiments: `table1 table2 table3 fig1 fig2 table4 equiv table5
//! table6 fig3 fig4 table7 load-sweep selective compression policies`.

use bench::experiments::{ablations, accurate, estimates, robustness, workload_tables, Opts};
use metrics::Table;

struct Args {
    names: Vec<String>,
    opts: Opts,
    csv_dir: Option<String>,
}

fn parse_args(args: &[String]) -> Args {
    let mut names = Vec::new();
    let mut opts = Opts::default();
    let mut csv_dir = None;
    let mut it = args.iter().cloned();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => {
                opts = Opts {
                    threads: opts.threads,
                    ..Opts::quick()
                }
            }
            "--jobs" => {
                opts.jobs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--jobs needs a number"));
            }
            "--seeds" => {
                let list = it.next().unwrap_or_else(|| die("--seeds needs a list"));
                opts.seeds = list
                    .split(',')
                    .map(|s| s.parse().unwrap_or_else(|_| die("bad seed list")))
                    .collect();
            }
            "--load" => {
                opts.load = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--load needs a number"));
            }
            "--csv" => csv_dir = Some(it.next().unwrap_or_else(|| die("--csv needs a dir"))),
            "--help" | "-h" => {
                println!(
                    "usage: repro [EXPERIMENT...] [--quick] [--jobs N] [--seeds a,b,c] \
                     [--load RHO] [--csv DIR] [--log-level SPEC] [--log-json] [--log-elapsed]"
                );
                println!("experiments: {}", ALL.join(" "));
                std::process::exit(0);
            }
            other if other.starts_with('-') => die(&format!("unknown flag {other}")),
            other => names.push(other.to_string()),
        }
    }
    Args {
        names,
        opts,
        csv_dir,
    }
}

fn die(msg: &str) -> ! {
    obs::error!(target: "repro", "{msg}");
    std::process::exit(2);
}

const ALL: [&str; 23] = [
    "table1",
    "table2",
    "table3",
    "fig1",
    "fig2",
    "table4",
    "equiv",
    "table5",
    "table6",
    "fig3",
    "fig4",
    "table7",
    "normal-load",
    "load-sweep",
    "selective",
    "slack",
    "depth",
    "compression",
    "policies",
    "fairness",
    "shaking",
    "flurry",
    "preemption",
];

fn run(name: &str, opts: &Opts) -> Vec<Table> {
    match name {
        "table1" => vec![workload_tables::table1()],
        "table2" => vec![workload_tables::table2(opts)],
        "table3" => vec![workload_tables::table3(opts)],
        "fig1" => accurate::fig1(opts),
        "fig2" => accurate::fig2(opts),
        "table4" => vec![accurate::table4(opts)],
        "equiv" => vec![accurate::equivalence(opts)],
        "table5" => vec![estimates::tables5_6(opts).remove(0)],
        "table6" => {
            let mut v = estimates::tables5_6(opts);
            vec![v.remove(1)]
        }
        "fig3" => estimates::fig3(opts),
        "fig4" => vec![estimates::fig4(opts)],
        "table7" => vec![estimates::table7(opts)],
        "normal-load" => vec![accurate::normal_vs_high_load(opts)],
        "load-sweep" => {
            vec![ablations::load_sweep(opts, &[0.5, 0.6, 0.7, 0.8, 0.9, 1.0])]
        }
        "selective" => vec![ablations::selective_sweep(
            opts,
            &[1.5, 2.0, 3.0, 5.0, 10.0],
        )],
        "slack" => vec![ablations::slack_sweep(
            opts,
            &[0.0, 0.5, 1.0, 2.0, 5.0, 10.0],
        )],
        "depth" => vec![ablations::depth_sweep(opts, &[1, 2, 4, 8, 16, 64])],
        "preemption" => vec![ablations::preemption_sweep(opts, &[1.5, 2.0, 5.0, 20.0])],
        "compression" => vec![ablations::compression_ablation(opts)],
        "policies" => vec![ablations::policy_ablation(opts)],
        "fairness" => vec![ablations::fairness_ablation(opts)],
        "shaking" => {
            vec![robustness::shaking(
                opts,
                10,
                simcore::SimSpan::from_mins(3),
            )]
        }
        "flurry" => vec![robustness::flurry(opts, 500)],
        other => die(&format!("unknown experiment {other:?} (try --help)")),
    }
}

fn main() {
    let argv = obs::log::init_cli("repro", std::env::args().skip(1).collect());
    let args = parse_args(&argv);
    let names: Vec<String> = if args.names.is_empty() {
        ALL.iter().map(|s| s.to_string()).collect()
    } else {
        args.names.clone()
    };
    if let Some(dir) = &args.csv_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| die(&format!("--csv {dir}: {e}")));
    }
    println!(
        "# backfill-sim repro — jobs={} seeds={:?} load={}\n",
        args.opts.jobs, args.opts.seeds, args.opts.load
    );
    for name in &names {
        let t0 = std::time::Instant::now();
        let tables = run(name, &args.opts);
        for (i, table) in tables.iter().enumerate() {
            println!("{}", table.render());
            if let Some(dir) = &args.csv_dir {
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
