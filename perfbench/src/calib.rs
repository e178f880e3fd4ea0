//! Host-speed calibration.
//!
//! The benchmark shares its host with other tenants, whose load slows
//! this process by up to ~1.8× for stretches of seconds to minutes. The
//! calibration workload is a small, frozen EASY-backfilling simulation
//! of its own — event heap, queue scans, reservation arithmetic, a
//! final sort — doing the same kind of work the simulator does, but
//! living in the benchmark, so it never changes with the program. Timed
//! between passes, its speed tells how fast the host is running this
//! process at the time, and timings are scaled by it (see README.md).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

fn next(state: &mut u64) -> u64 {
    // xorshift64*
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    state.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

const NODES: u64 = 128;
const JOBS: usize = 6_000;

#[derive(Clone, Copy)]
struct Job {
    arrival: u64,
    runtime: u64,
    width: u64,
}

/// EASY backfilling of a fixed synthetic trace; returns the summed wait.
fn simulate(jobs: &[Job]) -> u64 {
    // Events: (time, kind, job); kind 0 = completion, 1 = arrival.
    let mut events: BinaryHeap<Reverse<(u64, u8, usize)>> = BinaryHeap::new();
    for (i, j) in jobs.iter().enumerate() {
        events.push(Reverse((j.arrival, 1, i)));
    }
    let mut free = NODES;
    let mut running: Vec<(u64, u64)> = Vec::new(); // (end, width)
    let mut queue: Vec<usize> = Vec::new();
    let mut wait = 0u64;
    while let Some(Reverse((now, kind, i))) = events.pop() {
        if kind == 0 {
            free += jobs[i].width;
            if let Some(k) = running
                .iter()
                .position(|&(end, w)| end == now && w == jobs[i].width)
            {
                running.swap_remove(k);
            }
        } else {
            queue.push(i);
        }
        // Start queue heads that fit, then backfill behind the head's
        // reservation.
        while let Some(&head) = queue.first() {
            if jobs[head].width > free {
                break;
            }
            queue.remove(0);
            free -= jobs[head].width;
            wait += now - jobs[head].arrival;
            running.push((now + jobs[head].runtime, jobs[head].width));
            events.push(Reverse((now + jobs[head].runtime, 0, head)));
        }
        let Some(&head) = queue.first() else { continue };
        let mut ends = running.clone();
        ends.sort_unstable();
        let (mut avail, mut shadow) = (free, now);
        for &(end, w) in &ends {
            if avail >= jobs[head].width {
                break;
            }
            avail += w;
            shadow = end;
        }
        let extra = avail.saturating_sub(jobs[head].width);
        let mut q = 1;
        while q < queue.len() {
            let j = jobs[queue[q]];
            if j.width <= free && (now + j.runtime <= shadow || j.width <= extra) {
                let idx = queue.remove(q);
                free -= j.width;
                wait += now - j.arrival;
                running.push((now + j.runtime, j.width));
                events.push(Reverse((now + j.runtime, 0, idx)));
            } else {
                q += 1;
            }
        }
    }
    wait
}

/// The calibration's wall seconds on this benchmark's reference host
/// (a quiet 2-vCPU x86-64 VM). Timings scaled by [`HostSpeed`] read as
/// seconds on that host.
pub const REFERENCE_S: f64 = 0.045;

/// Run the calibration workload once; returns its wall seconds.
pub fn run() -> f64 {
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut t = 0;
    let jobs: Vec<Job> = (0..JOBS)
        .map(|_| {
            t += next(&mut rng) % 120;
            Job {
                arrival: t,
                runtime: 1 + next(&mut rng) % 4_000,
                width: 1 + (next(&mut rng) % NODES).min(next(&mut rng) % NODES),
            }
        })
        .collect();
    let t0 = Instant::now();
    black_box(simulate(black_box(&jobs)));
    t0.elapsed().as_secs_f64()
}

/// Calibration samples ("marks") taken through a run. A timing made
/// between two marks is scaled by the mean of the two.
pub struct HostSpeed {
    /// Calibration runs per mark, at once on as many threads: as many
    /// as the measured work keeps CPUs busy, so a mark sees the load on
    /// each of them.
    lanes: usize,
    marks: Vec<f64>,
}

impl HostSpeed {
    /// Start with one mark of `lanes` parallel calibration runs.
    pub fn new(lanes: usize) -> HostSpeed {
        let mut host = HostSpeed {
            lanes,
            marks: Vec::new(),
        };
        host.mark();
        host
    }

    /// Take a mark now (the mean time of its parallel runs); returns its
    /// index.
    pub fn mark(&mut self) -> usize {
        let secs: f64 = std::thread::scope(|scope| {
            let runs: Vec<_> = (0..self.lanes).map(|_| scope.spawn(run)).collect();
            runs.into_iter()
                .map(|r| r.join().expect("the calibration does not panic"))
                .sum()
        });
        self.marks.push(secs / self.lanes as f64);
        self.marks.len() - 1
    }

    /// Index of the latest mark.
    pub fn last(&self) -> usize {
        self.marks.len() - 1
    }

    /// Factor that turns a timing made between marks `a` and `b` into
    /// reference-host time.
    pub fn scale(&self, a: usize, b: usize) -> f64 {
        REFERENCE_S / ((self.marks[a] + self.marks[b]) / 2.0)
    }

    /// Marks taken so far.
    pub fn marks(&self) -> usize {
        self.marks.len()
    }

    /// Median host slowdown over the run (1 = the reference host).
    pub fn slowdown(&self) -> f64 {
        crate::report::median(&self.marks) / REFERENCE_S
    }
}
