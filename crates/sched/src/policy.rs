//! Queue-priority policies.
//!
//! Backfilling schedulers keep a queue of waiting jobs; the *priority
//! policy* decides the order in which queued jobs are considered — who is
//! "head of the queue" (and so gets the reservation under EASY), and who
//! gets first pick of backfill holes. The paper studies three:
//!
//! * **FCFS** — priority is wait time: strict arrival order.
//! * **SJF** — Shortest Job First: priority is inversely proportional to
//!   the *estimated* runtime.
//! * **XFactor** — expansion factor: priority is
//!   `(wait + estimated runtime) / estimated runtime`, which starts at 1
//!   and grows fastest for short jobs, giving them an SJF-like boost while
//!   still aging long waiters toward the front.
//!
//! Two auxiliary policies (LJF and Widest-First) are included for ablation
//! studies. All orderings are total: ties break by arrival time and then
//! job id, so schedules are deterministic.

use crate::scheduler::JobMeta;
use serde::{Deserialize, Serialize};
use simcore::{SimSpan, SimTime};
use std::cmp::Ordering;

/// A queue-priority policy.
///
/// ```
/// use sched::{JobMeta, Policy};
/// use simcore::{JobId, SimSpan, SimTime};
///
/// let long = JobMeta { id: JobId(0), arrival: SimTime::ZERO,
///                      estimate: SimSpan::from_hours(10), width: 4 };
/// let short = JobMeta { id: JobId(1), arrival: SimTime::new(30),
///                       estimate: SimSpan::from_mins(5), width: 4 };
/// let mut queue = vec![long, short];
/// Policy::Sjf.sort(&mut queue, SimTime::new(60));
/// assert_eq!(queue[0].id, JobId(1), "shortest estimated job first");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Policy {
    /// First-Come First-Served: order by arrival.
    Fcfs,
    /// Shortest (estimated) Job First.
    Sjf,
    /// Expansion-factor priority (highest xfactor first).
    XFactor,
    /// Longest (estimated) Job First — ablation.
    Ljf,
    /// Widest job first — ablation.
    WidestFirst,
}

impl Policy {
    /// The three policies the paper evaluates.
    pub const PAPER: [Policy; 3] = [Policy::Fcfs, Policy::Sjf, Policy::XFactor];

    /// Short display label, matching the paper's terminology.
    pub fn label(self) -> &'static str {
        match self {
            Policy::Fcfs => "FCFS",
            Policy::Sjf => "SJF",
            Policy::XFactor => "XF",
            Policy::Ljf => "LJF",
            Policy::WidestFirst => "WIDEST",
        }
    }

    /// The expansion factor of a job at `now`:
    /// `(wait + estimate) / estimate ≥ 1`.
    pub fn xfactor(job: &JobMeta, now: SimTime) -> f64 {
        let wait = now.since(job.arrival).as_secs_f64();
        let est = job.estimate.as_secs().max(1) as f64;
        (wait + est) / est
    }

    /// The instant `job`'s expansion factor reaches `threshold`:
    /// `xf(t) ≥ τ ⇔ t ≥ arrival + (τ − 1)·max(estimate, 1)`, rounded up
    /// to the second; [`SimTime::FAR_FUTURE`] for an infinite threshold.
    pub fn crossing_time(threshold: f64, job: &JobMeta) -> SimTime {
        if threshold.is_infinite() {
            return SimTime::FAR_FUTURE;
        }
        let est = job.estimate.as_secs().max(1) as f64;
        job.arrival + SimSpan::new(((threshold - 1.0) * est).ceil() as u64)
    }

    /// Compare two queued jobs at time `now`; `Less` means `a` has higher
    /// priority (comes first). Total order for any fixed `now`.
    ///
    /// XFactor compares exactly, in integers: `xf = 1 + wait / e` with
    /// `e = max(estimate, 1)`, so `a` leads when `wait_a · e_b >
    /// wait_b · e_a` — the cross-multiplied `(wait + e)` form with the
    /// common `e_a · e_b` taken off both sides. The products fit `u128`
    /// for any `u64` times. [`xfactor`](Policy::xfactor) rounds, so where
    /// two expansion factors differ by less than an `f64` ulp it ties and
    /// the arrival tie-break decides; here the larger ratio leads.
    pub fn compare(self, a: &JobMeta, b: &JobMeta, now: SimTime) -> Ordering {
        let primary = match self {
            Policy::Fcfs => Ordering::Equal, // arrival tie-break decides
            Policy::Sjf => a.estimate.cmp(&b.estimate),
            Policy::XFactor => {
                let (wa, ea) = aging(a, now);
                let (wb, eb) = aging(b, now);
                (u128::from(wb) * u128::from(ea)).cmp(&(u128::from(wa) * u128::from(eb)))
            }
            Policy::Ljf => b.estimate.cmp(&a.estimate),
            Policy::WidestFirst => b.width.cmp(&a.width),
        };
        primary.then_with(|| wins_ties(a, b))
    }

    /// The first whole second after `now` at which `b` orders before `a`,
    /// for a pair where `a` orders before `b` at `now`; `u64::MAX` when
    /// that never happens. Only XFactor orders change with time: the
    /// comparison margin `D(t) = e_b · wait_a(t) − e_a · wait_b(t)` is
    /// linear in `t` with slope `e_b − e_a`, so the pair flips at most
    /// once — when the job with the shorter estimate overtakes — at the
    /// first `t` where `D` turns negative (or reaches zero, if `b` wins
    /// the tie-break). The division is exact: `u64` when every term fits
    /// 32 bits (a hardware divide), `u128` otherwise; an instant past
    /// `u64::MAX` is "never".
    ///
    /// A job that arrives after `now` (its wait saturates at zero, so its
    /// expansion factor is not yet linear) gives `now + 1`: still a lower
    /// bound on the flip, the only promise a caller relies on.
    pub fn flip_time(self, a: &JobMeta, b: &JobMeta, now: SimTime) -> u64 {
        if self != Policy::XFactor {
            return u64::MAX;
        }
        let t = now.as_secs();
        if a.arrival > now || b.arrival > now {
            return t.saturating_add(1);
        }
        debug_assert_eq!(self.compare(a, b, now), Ordering::Less, "pair out of order");
        let (wa, ea) = aging(a, now);
        let (wb, eb) = aging(b, now);
        if ea <= eb {
            // `a` ages at least as fast as `b`: the margin never shrinks.
            return u64::MAX;
        }
        let slope = ea - eb;
        let a_wins_ties = wins_ties(a, b) == Ordering::Less;
        // Seconds from `now` until the margin crosses zero: past the zero
        // when `a` keeps ties, onto it when `b` takes them.
        let steps = if (wa | wb | ea | eb) >> 32 == 0 {
            let margin = eb * wa - ea * wb;
            u128::from(if a_wins_ties {
                margin / slope + 1
            } else {
                margin.div_ceil(slope)
            })
        } else {
            let margin = u128::from(eb) * u128::from(wa) - u128::from(ea) * u128::from(wb);
            let slope = u128::from(slope);
            if a_wins_ties {
                margin / slope + 1
            } else {
                margin.div_ceil(slope)
            }
        };
        u64::try_from(steps)
            .ok()
            .and_then(|s| t.checked_add(s))
            .unwrap_or(u64::MAX)
    }

    /// Sort a queue into priority order (highest priority first) at `now`.
    pub fn sort(self, queue: &mut [JobMeta], now: SimTime) {
        queue.sort_by(|a, b| self.compare(a, b, now));
    }
}

/// A queued job's wait at `now` and its estimate, floored at one second:
/// `xf = 1 + wait / estimate`.
fn aging(job: &JobMeta, now: SimTime) -> (u64, u64) {
    (
        now.since(job.arrival).as_secs(),
        job.estimate.as_secs().max(1),
    )
}

/// The tie-break every policy shares: earlier arrival, then lower id.
fn wins_ties(a: &JobMeta, b: &JobMeta) -> Ordering {
    a.arrival.cmp(&b.arrival).then(a.id.cmp(&b.id))
}

impl std::fmt::Display for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{JobId, SimSpan};

    fn meta(id: u32, arrival: u64, estimate: u64, width: u32) -> JobMeta {
        JobMeta {
            id: JobId(id),
            arrival: SimTime::new(arrival),
            estimate: SimSpan::new(estimate),
            width,
        }
    }

    #[test]
    fn fcfs_orders_by_arrival() {
        let mut q = vec![meta(1, 50, 10, 1), meta(2, 10, 9999, 1), meta(3, 30, 1, 1)];
        Policy::Fcfs.sort(&mut q, SimTime::new(100));
        let ids: Vec<u32> = q.iter().map(|j| j.id.0).collect();
        assert_eq!(ids, vec![2, 3, 1]);
    }

    #[test]
    fn sjf_orders_by_estimate() {
        let mut q = vec![meta(1, 0, 500, 1), meta(2, 10, 100, 1), meta(3, 20, 300, 1)];
        Policy::Sjf.sort(&mut q, SimTime::new(100));
        let ids: Vec<u32> = q.iter().map(|j| j.id.0).collect();
        assert_eq!(ids, vec![2, 3, 1]);
    }

    #[test]
    fn sjf_ties_break_by_arrival() {
        let mut q = vec![meta(2, 20, 100, 1), meta(1, 10, 100, 1)];
        Policy::Sjf.sort(&mut q, SimTime::new(100));
        assert_eq!(q[0].id.0, 1);
    }

    #[test]
    fn xfactor_value_is_one_at_arrival_and_grows() {
        let j = meta(1, 100, 1000, 1);
        assert!((Policy::xfactor(&j, SimTime::new(100)) - 1.0).abs() < 1e-12);
        assert!((Policy::xfactor(&j, SimTime::new(1100)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn xfactor_rises_faster_for_short_jobs() {
        let short = meta(1, 0, 100, 1);
        let long = meta(2, 0, 10_000, 1);
        let now = SimTime::new(500);
        assert!(Policy::xfactor(&short, now) > Policy::xfactor(&long, now));
        let mut q = vec![long, short];
        Policy::XFactor.sort(&mut q, now);
        assert_eq!(q[0].id.0, 1, "short job should lead under XF");
    }

    #[test]
    fn xfactor_equal_jobs_tie_break_by_arrival_then_id() {
        // Same estimate, same arrival: id decides.
        let mut q = vec![meta(5, 0, 100, 1), meta(3, 0, 100, 1)];
        Policy::XFactor.sort(&mut q, SimTime::new(50));
        assert_eq!(q[0].id.0, 3);
    }

    #[test]
    fn xfactor_guards_zero_estimate() {
        let j = meta(1, 0, 0, 1);
        let x = Policy::xfactor(&j, SimTime::new(10));
        assert!(x.is_finite());
        assert!((x - 11.0).abs() < 1e-12); // (10 + 1) / 1
    }

    #[test]
    fn ljf_is_reverse_of_sjf() {
        let mut a = vec![meta(1, 0, 500, 1), meta(2, 0, 100, 1)];
        let mut b = a.clone();
        Policy::Sjf.sort(&mut a, SimTime::ZERO);
        Policy::Ljf.sort(&mut b, SimTime::ZERO);
        assert_eq!(a[0].id, b[1].id);
        assert_eq!(a[1].id, b[0].id);
    }

    #[test]
    fn widest_first_orders_by_width() {
        let mut q = vec![meta(1, 0, 10, 4), meta(2, 0, 10, 64), meta(3, 0, 10, 16)];
        Policy::WidestFirst.sort(&mut q, SimTime::ZERO);
        let widths: Vec<u32> = q.iter().map(|j| j.width).collect();
        assert_eq!(widths, vec![64, 16, 4]);
    }

    #[test]
    fn ordering_is_total_and_antisymmetric() {
        let now = SimTime::new(123);
        let jobs = vec![
            meta(1, 0, 50, 2),
            meta(2, 5, 50, 2),
            meta(3, 5, 70, 1),
            meta(4, 9, 10, 8),
        ];
        for p in [
            Policy::Fcfs,
            Policy::Sjf,
            Policy::XFactor,
            Policy::Ljf,
            Policy::WidestFirst,
        ] {
            for a in &jobs {
                assert_eq!(p.compare(a, a, now), Ordering::Equal);
                for b in &jobs {
                    let ab = p.compare(a, b, now);
                    let ba = p.compare(b, a, now);
                    assert_eq!(ab, ba.reverse(), "{p}: not antisymmetric");
                    if a.id != b.id {
                        assert_ne!(ab, Ordering::Equal, "{p}: distinct jobs compared equal");
                    }
                }
            }
        }
    }

    #[test]
    fn labels() {
        assert_eq!(Policy::Fcfs.to_string(), "FCFS");
        assert_eq!(Policy::Sjf.to_string(), "SJF");
        assert_eq!(Policy::XFactor.to_string(), "XF");
        assert_eq!(Policy::PAPER.len(), 3);
    }
}
