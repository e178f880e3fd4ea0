//! # simcore — deterministic discrete-event simulation substrate
//!
//! The foundation the `backfill-sim` workspace is built on:
//!
//! * [`time`] — integral-second [`SimTime`]/[`SimSpan`] newtypes;
//! * [`rng`] — bit-reproducible xoshiro256++/SplitMix64 generators with
//!   stream splitting;
//! * [`event`] — a deterministic pending-event queue with total tie-breaking;
//! * [`validate`] — independent post-hoc schedule auditing;
//! * [`error`] — substrate error types;
//! * [`JobId`] — the dense job index every crate shares.
//!
//! There is no event loop and no processor ledger here. The simulation
//! driver (`backfill_sim::driver`) pops this crate's [`EventQueue`] in its
//! own loop and counts the processors in use itself, so each exists once.
//! Nothing in this crate knows about jobs' runtimes, estimates, queues, or
//! backfilling — those live in the `workload` and `sched` crates.

#![warn(missing_docs)]

pub mod error;
pub mod event;
pub mod rng;
pub mod time;
pub mod validate;

pub use error::SimError;
pub use event::{EventClass, EventQueue};
pub use rng::{SimRng, SplitMix64, Xoshiro256pp};
pub use time::{SimSpan, SimTime};
pub use validate::{validate_schedule, PlacedJob};

use serde::{Deserialize, Serialize};

/// Identifies a job throughout the simulator. Dense indices into the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct JobId(pub u32);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job#{}", self.0)
    }
}
