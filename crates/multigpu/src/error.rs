//! The workspace-wide training error hierarchy.
//!
//! Every public entry point of the training stack — trainer construction,
//! [`try_step`](crate::LdaTrainer::try_step), the fallible worker fan-out,
//! checkpoint save/resume — returns [`CuldaError`] instead of panicking.
//! Lower layers fold in via `From`: [`ConfigError`] for user-shaped
//! configuration, [`SimFault`] for injected device faults, `io::Error` for
//! checkpoint plumbing (with the `InvalidData` kind routed to
//! [`CuldaError::Checkpoint`], the resume-format error).

use crate::config::ConfigError;
use culda_gpusim::SimFault;
use std::error::Error;
use std::fmt;
use std::io;

/// Anything that can go wrong in the training and checkpoint stack.
#[derive(Debug)]
pub enum CuldaError {
    /// A degenerate configuration was rejected.
    Config(ConfigError),
    /// User-shaped input mismatch (corpus/platform shape errors).
    Invalid(String),
    /// A simulated device fault surfaced past every recovery layer.
    Sim(SimFault),
    /// A worker exhausted its retry budget and was declared dead.
    WorkerLost {
        /// Device ordinal of the lost worker.
        device: usize,
        /// Attempts made before giving up (initial try + retries).
        attempts: u32,
    },
    /// Every worker was lost; no survivors to rebalance onto.
    AllWorkersLost,
    /// A worker's host thread panicked (a genuine bug, caught at the
    /// trainer's fan-out boundary).
    WorkerPanicked {
        /// Device ordinal of the panicked worker.
        device: usize,
    },
    /// A checkpoint failed format validation (bad magic, version, shape or
    /// policy mismatch).
    Checkpoint(String),
    /// An I/O error outside checkpoint format validation.
    Io(io::Error),
}

impl fmt::Display for CuldaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CuldaError::Config(e) => write!(f, "invalid configuration: {e}"),
            CuldaError::Invalid(msg) => write!(f, "invalid input: {msg}"),
            CuldaError::Sim(e) => write!(f, "device fault: {e}"),
            CuldaError::WorkerLost { device, attempts } => {
                write!(f, "worker on gpu {device} lost after {attempts} attempt(s)")
            }
            CuldaError::AllWorkersLost => write!(f, "all workers lost; cannot rebalance"),
            CuldaError::WorkerPanicked { device } => {
                write!(f, "worker on gpu {device} panicked")
            }
            CuldaError::Checkpoint(msg) => write!(f, "bad checkpoint: {msg}"),
            CuldaError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl Error for CuldaError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CuldaError::Config(e) => Some(e),
            CuldaError::Sim(e) => Some(e),
            CuldaError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for CuldaError {
    fn from(e: ConfigError) -> Self {
        CuldaError::Config(e)
    }
}

impl From<SimFault> for CuldaError {
    fn from(e: SimFault) -> Self {
        CuldaError::Sim(e)
    }
}

impl From<io::Error> for CuldaError {
    fn from(e: io::Error) -> Self {
        // The resume format helpers tag every validation failure as
        // `InvalidData`; everything else is real I/O.
        if e.kind() == io::ErrorKind::InvalidData {
            CuldaError::Checkpoint(e.to_string())
        } else {
            CuldaError::Io(e)
        }
    }
}

/// Counters describing what fault recovery did during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Faults the attached plan fired (permanent faults count per firing).
    pub faults_injected: u64,
    /// Iteration-body retries across all workers.
    pub retries: u64,
    /// Workers declared permanently lost.
    pub workers_lost: u64,
    /// Chunks migrated to survivors after permanent losses.
    pub chunks_migrated: u64,
    /// Health-detector events observed by the run driver (NaN scores,
    /// throughput collapse, convergence stall, sync regression). Zero when
    /// no monitor was attached.
    pub health_events: u64,
}

impl RecoveryStats {
    /// True when no fault ever fired, no recovery ran, and no health
    /// anomaly was detected.
    pub fn is_clean(&self) -> bool {
        *self == Self::default()
    }
}

impl fmt::Display for RecoveryStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} fault(s) injected, {} retry(s), {} worker(s) lost, {} chunk(s) migrated",
            self.faults_injected, self.retries, self.workers_lost, self.chunks_migrated
        )?;
        if self.health_events > 0 {
            write!(f, ", {} health event(s)", self.health_events)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_preserve_the_cause() {
        let e = CuldaError::from(ConfigError::NoGpus);
        assert!(matches!(e, CuldaError::Config(_)));
        assert!(e.source().is_some());
        let e = CuldaError::from(SimFault::LinkDropped {
            device: 1,
            epoch: 2,
        });
        assert!(matches!(e, CuldaError::Sim(_)));
        assert!(e.to_string().contains("device fault"));
    }

    #[test]
    fn invalid_data_io_errors_become_checkpoint_errors() {
        let bad = io::Error::new(io::ErrorKind::InvalidData, "bad magic");
        let e = CuldaError::from(bad);
        assert!(matches!(e, CuldaError::Checkpoint(_)));
        assert!(e.to_string().contains("bad magic"));
        let real = io::Error::new(io::ErrorKind::NotFound, "gone");
        assert!(matches!(CuldaError::from(real), CuldaError::Io(_)));
    }

    #[test]
    fn recovery_stats_render_and_detect_clean_runs() {
        let clean = RecoveryStats::default();
        assert!(clean.is_clean());
        let busy = RecoveryStats {
            faults_injected: 2,
            retries: 1,
            workers_lost: 1,
            chunks_migrated: 3,
            health_events: 0,
        };
        assert!(!busy.is_clean());
        let s = busy.to_string();
        assert!(s.contains("2 fault(s)") && s.contains("3 chunk(s) migrated"));
        assert!(!s.contains("health"), "quiet when no events fired");
        let unhealthy = RecoveryStats {
            health_events: 2,
            ..RecoveryStats::default()
        };
        assert!(!unhealthy.is_clean());
        assert!(unhealthy.to_string().contains("2 health event(s)"));
    }
}
