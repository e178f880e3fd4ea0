//! # simcore — deterministic discrete-event simulation substrate
//!
//! The foundation the `backfill-sim` workspace is built on:
//!
//! * [`time`] — integral-second [`SimTime`]/[`SimSpan`] newtypes;
//! * [`rng`] — bit-reproducible xoshiro256++/SplitMix64 generators with
//!   stream splitting;
//! * [`event`] — a deterministic pending-event queue with total tie-breaking;
//! * [`engine`] — a minimal event loop ([`Engine`]/[`Actor`]);
//! * [`machine`] — the space-shared processor pool model ([`Machine`]);
//! * [`validate`] — independent post-hoc schedule auditing;
//! * [`error`] — substrate error types.
//!
//! Nothing in this crate knows about jobs' runtimes, estimates, queues, or
//! backfilling — those live in the `workload` and `sched` crates.

#![warn(missing_docs)]

pub mod engine;
pub mod error;
pub mod event;
pub mod machine;
pub mod rng;
pub mod time;
pub mod validate;

pub use engine::{Actor, Ctx, Engine, Hook};
pub use error::SimError;
pub use event::{EventClass, EventQueue};
pub use machine::{JobId, Machine};
pub use rng::{SimRng, SplitMix64, Xoshiro256pp};
pub use time::{SimSpan, SimTime};
pub use validate::{schedule_utilization, validate_schedule, PlacedJob};
