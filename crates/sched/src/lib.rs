//! # sched — parallel job scheduling policies
//!
//! The paper's subject matter: queue-priority policies and backfilling
//! strategies for space-shared parallel machines.
//!
//! * [`profile`] — the availability profile (the "2D chart"): the core
//!   data structure every backfilling scheduler manipulates;
//! * [`policy`] — FCFS / SJF / XFactor queue priorities (plus ablations);
//! * [`scheduler`] — the event-driven [`Scheduler`] interface;
//! * [`fcfs`] — the no-backfill baseline;
//! * [`conservative`] — the reservation-list family, one scheduler with
//!   three constructors: conservative backfilling (a reservation per job,
//!   priority-ordered compression on early completions), selective
//!   backfilling (the paper's proposed middle ground: reservations only
//!   for jobs whose expansion factor crosses a threshold) and slack-based
//!   backfilling (Talby & Feitelson, the paper's reference \[13\]: every
//!   job holds a promise with built-in slack);
//! * [`depth`] — reservation-depth backfilling: protect the top *k* queued
//!   jobs, the EASY↔conservative continuum of Chiang et al. Depth 1 is
//!   aggressive (EASY) backfilling with a single pivot reservation, and
//!   [`DepthScheduler::preemptive`] is EASY with selective preemption of
//!   running jobs (the authors' companion strategy, their reference
//!   \[6\]);
//! * [`queue`] — the one certificate-ordered job list behind every wait
//!   queue and the reservation list.

#![warn(missing_docs)]

pub mod conservative;
pub mod depth;
pub mod fcfs;
pub mod policy;
mod preemptive;
pub mod profile;
pub mod queue;
pub mod scheduler;

pub use conservative::{Compression, ConservativeScheduler};
pub use depth::DepthScheduler;
pub use fcfs::FcfsScheduler;
pub use policy::Policy;
pub use profile::{Profile, ProfileStats, Segment};
pub use queue::{QueueCounters, SchedQueue};
pub use scheduler::{Decisions, JobMeta, Running, Scheduler};
