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
//! * [`conservative`] — reservation-per-job backfilling with priority-
//!   ordered compression on early completions;
//! * [`easy`] — aggressive (EASY) backfilling with a single pivot
//!   reservation;
//! * [`selective`] — the paper's proposed middle ground: reservations only
//!   for jobs whose expansion factor crosses a threshold;
//! * [`slack`] — slack-based backfilling (Talby & Feitelson), the paper's
//!   reference \[13\]: every job holds a promise with built-in slack;
//! * [`depth`] — reservation-depth backfilling: protect the top *k* queued
//!   jobs, the EASY↔conservative continuum of Chiang et al.;
//! * [`preemptive`] — EASY with selective preemption of running jobs (the
//!   authors' companion strategy, their reference \[6\]);
//! * [`queue`] — incrementally maintained priority queues shared by the
//!   schedulers' event-loop hot paths.

#![warn(missing_docs)]

pub mod conservative;
pub mod depth;
pub mod easy;
pub mod fcfs;
pub mod policy;
pub mod preemptive;
pub mod profile;
pub mod queue;
pub mod scheduler;
pub mod selective;
pub mod slack;

pub use conservative::{Compression, ConservativeScheduler};
pub use depth::DepthScheduler;
pub use easy::EasyScheduler;
pub use fcfs::FcfsScheduler;
pub use policy::Policy;
pub use preemptive::PreemptiveScheduler;
pub use profile::{Profile, ProfileStats, Segment};
pub use queue::{QueueCounters, SchedQueue};
pub use scheduler::{Decisions, JobMeta, Scheduler};
pub use selective::SelectiveScheduler;
pub use slack::{SlackPolicy, SlackScheduler};
