//! Error types for the simulation substrate.

use std::fmt;

/// Errors the schedule audit ([`crate::validate_schedule`]) reports. Each
/// indicates a scheduler bug (the simulator is deterministic, so none of
/// these are "operational" errors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A job requests more processors than the machine has in total, so it
    /// can never be scheduled.
    JobWiderThanMachine {
        /// The offending job.
        job: u32,
        /// Processors requested.
        width: u32,
        /// Machine size.
        machine: u32,
    },
    /// A schedule audit found a constraint violation.
    AuditFailure(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::JobWiderThanMachine {
                job,
                width,
                machine,
            } => write!(
                f,
                "job#{job} requests {width} processors but the machine only has {machine}"
            ),
            SimError::AuditFailure(msg) => write!(f, "schedule audit failed: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = SimError::JobWiderThanMachine {
            job: 1,
            width: 600,
            machine: 430,
        };
        assert!(e.to_string().contains("job#1"));
        assert!(e.to_string().contains("600"));
        assert!(e.to_string().contains("430"));
        let e = SimError::AuditFailure("cap".into());
        assert!(e.to_string().contains("cap"));
    }

    #[test]
    fn implements_error_trait() {
        fn takes_error<E: std::error::Error>(_: E) {}
        takes_error(SimError::AuditFailure(String::new()));
    }
}
