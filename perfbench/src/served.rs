//! The served path: daemon child processes, and sweeps through
//! `coord::run_sweep` against them.
//!
//! The daemons are this same executable started with `--serve`: it runs
//! `service::Server` exactly as the `bfsimd` binary does (bound to
//! `127.0.0.1:0`, one worker, a journaled result cache) and prints the
//! same `bfsimd listening on ADDR` line. Each daemon also watches its
//! stdin: when the benchmark goes away for any reason the pipe closes
//! and the daemon exits, so no daemon outlives the benchmark.

use crate::report::Report;
use backfill_sim::RunConfig;
use coord::{run_sweep_recoverable, Plan, SweepJournal, SweepOptions, SweepOutcome};
use service::{Client, Server, ServiceConfig, ServiceStats};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Shards per fleet.
pub const SHARDS: usize = 2;

/// `--serve` mode: run one daemon until it is shut down over the wire or
/// its stdin closes.
pub fn serve(journal: &Path) -> ! {
    obs::span::calibrate_clock();
    let cfg = ServiceConfig {
        workers: 1,
        queue_cap: 2,
        journal: Some(journal.to_path_buf()),
        ..ServiceConfig::default()
    };
    let handle = match Server::start("127.0.0.1:0", cfg) {
        Ok(handle) => handle,
        Err(err) => {
            eprintln!("perfbench daemon: cannot start: {err}");
            std::process::exit(2);
        }
    };
    std::thread::spawn(|| {
        let mut sink = Vec::new();
        let _ = std::io::stdin().read_to_end(&mut sink);
        std::process::exit(0);
    });
    let mut out = std::io::stdout();
    let _ = writeln!(out, "bfsimd listening on {} (1 worker)", handle.addr());
    let _ = out.flush();
    handle.join();
    std::process::exit(0);
}

struct Daemon {
    child: Child,
    /// Held open for the daemon's life; dropping it tells the daemon to
    /// exit.
    stdin: Option<ChildStdin>,
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

/// A running set of daemons. Dropping it stops every daemon and waits
/// for each to end.
pub struct Fleet {
    daemons: Vec<Daemon>,
    pub journals: Vec<PathBuf>,
}

impl Fleet {
    /// Start `SHARDS` daemons with cache journals in `dir`, wait for each
    /// to print its listening line, then handshake (`capabilities`).
    pub fn start(dir: &Path) -> Result<Fleet, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
        let mut fleet = Fleet {
            daemons: Vec::new(),
            journals: Vec::new(),
        };
        for shard in 0..SHARDS {
            let journal = dir.join(format!("cache-{shard}.jsonl"));
            let mut child = Command::new(&exe)
                .arg("--serve")
                .arg(&journal)
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| format!("spawning a daemon: {e}"))?;
            let stdin = child.stdin.take();
            let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
            // Push the daemon before reading, so a failed read still
            // stops it when the fleet drops.
            let mut line = String::new();
            let read = stdout.read_line(&mut line);
            fleet.daemons.push(Daemon {
                child,
                stdin,
                _stdout: stdout,
                addr: String::new(),
            });
            fleet.journals.push(journal);
            let addr = match read {
                Ok(_) => line
                    .strip_prefix("bfsimd listening on ")
                    .and_then(|rest| rest.split_whitespace().next())
                    .map(str::to_string),
                Err(_) => None,
            }
            .ok_or_else(|| format!("daemon {shard} did not start: {line:?}"))?;
            fleet.daemons[shard].addr = addr;
        }
        for addr in fleet.addrs() {
            let caps = Client::connect(addr.as_str())
                .and_then(|mut c| c.capabilities())
                .map_err(|e| format!("handshake with {addr}: {e}"))?;
            if caps.workers != 1 {
                return Err(format!("daemon {addr} reports {} workers", caps.workers));
            }
        }
        Ok(fleet)
    }

    pub fn addrs(&self) -> Vec<String> {
        self.daemons.iter().map(|d| d.addr.clone()).collect()
    }

    /// Σ `VmHWM` over the daemons, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.daemons
            .iter()
            .map(|d| vm_hwm_mb(&format!("/proc/{}/status", d.child.id())))
            .sum()
    }

    /// Σ of the daemons' service counters.
    pub fn stats(&self) -> Result<ServiceStats, String> {
        let mut all = Vec::new();
        for addr in self.addrs() {
            let stats = Client::connect(addr.as_str())
                .and_then(|mut c| c.stats())
                .map_err(|e| format!("stats from {addr}: {e}"))?;
            all.push(stats);
        }
        Ok(coord::aggregate_stats(&all))
    }

    /// Σ of the daemons' cache-journal appends.
    pub fn journal_appends(&self) -> Result<u64, String> {
        let mut total = 0;
        for addr in self.addrs() {
            let health = Client::connect(addr.as_str())
                .and_then(|mut c| c.health())
                .map_err(|e| format!("health from {addr}: {e}"))?;
            total += health.journal.map_or(0, |j| j.appended);
        }
        Ok(total)
    }

    /// Shut every daemon down over the wire and wait for it to exit;
    /// one that does not exit in time is killed.
    pub fn stop(mut self) {
        for daemon in &mut self.daemons {
            if !daemon.addr.is_empty() {
                let _ = Client::connect_with(daemon.addr.as_str(), Some(Duration::from_secs(2)))
                    .and_then(|mut c| c.shutdown());
            }
        }
        for daemon in &mut self.daemons {
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                match daemon.child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(2))
                    }
                    _ => {
                        let _ = daemon.child.kill();
                        let _ = daemon.child.wait();
                        break;
                    }
                }
            }
            daemon.stdin = None;
        }
        self.daemons.clear();
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for daemon in &mut self.daemons {
            daemon.stdin = None;
            let _ = daemon.child.kill();
            let _ = daemon.child.wait();
        }
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MiB (0 if unreadable).
pub fn vm_hwm_mb(status: &str) -> f64 {
    std::fs::read_to_string(status)
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One sweep's wall time and outcome.
pub struct Sweep {
    pub secs: f64,
    pub outcome: SweepOutcome,
    pub journal_appends: u64,
}

/// Run `cells` across the fleet through `coord::run_sweep_recoverable`
/// with a fresh sweep journal at `journal`: one submitter per shard, no
/// stealing (cells stay on their home shard, so a repeat sweep is all
/// cache hits).
pub fn sweep(
    fleet: &Fleet,
    cells: &[RunConfig],
    journal: &Path,
    spans: bool,
) -> Result<Sweep, String> {
    let opts = SweepOptions {
        window: Some(1),
        steal: false,
        spans,
        ..SweepOptions::default()
    };
    let t0 = Instant::now();
    let plan = Plan::new(cells, SHARDS);
    let journal =
        SweepJournal::create(journal, &plan).map_err(|e| format!("sweep journal: {e}"))?;
    let outcome = run_sweep_recoverable(&fleet.addrs(), cells, &opts, Some(&journal), None)
        .map_err(|e| format!("sweep: {e}"))?;
    let secs = t0.elapsed().as_secs_f64();
    Ok(Sweep {
        secs,
        outcome,
        journal_appends: journal.appended(),
    })
}

/// Check a sweep's fingerprints against `want` (one per input cell) and
/// its cache provenance against `cached`; count each submit.
pub fn check_sweep(
    report: &mut Report,
    what: &str,
    cells: &[RunConfig],
    sweep: &Sweep,
    want: &[u64],
    cached: bool,
) {
    let plan = Plan::new(cells, SHARDS);
    report.attempted += cells.len() as u64;
    for failed in &sweep.outcome.failed {
        report.fail(format!(
            "{what}: cell {} failed: {}",
            failed.index, failed.error
        ));
    }
    for done in &sweep.outcome.cells {
        let input = plan.input_map.iter().position(|&p| p == done.index);
        let Some(input) = input else {
            report.fail(format!("{what}: unknown cell index {}", done.index));
            continue;
        };
        if done.report.fingerprint != want[input] {
            report.fail(format!(
                "{what}: {} fingerprint {} != in-process {}",
                cells[input].label(),
                done.report.fingerprint,
                want[input]
            ));
        }
        if done.cached != cached {
            report.fail(format!(
                "{what}: {} served {} the cache",
                cells[input].label(),
                if done.cached { "from" } else { "past" }
            ));
        }
    }
}

/// A temporary directory inside the working directory, removed on drop.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> Result<TempDir, String> {
        let path = PathBuf::from(format!(".perfbench-tmp-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(TempDir(path))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
