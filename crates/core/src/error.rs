//! Error type for Mitosis operations.

use mitosis_mem::MemError;
use mitosis_numa::SocketId;
use mitosis_pt::PtError;
use mitosis_vmm::VmError;
use std::error::Error;
use std::fmt;

/// Errors returned by the Mitosis controller and mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MitosisError {
    /// Replication was requested on a socket that does not exist.
    InvalidSocket {
        /// The offending socket.
        socket: SocketId,
    },
    /// Replication was requested with an empty mask.
    EmptyMask,
    /// The system-wide policy forbids the requested operation
    /// (e.g. Mitosis is disabled).
    PolicyDisabled,
    /// A virtual-memory operation failed.
    Vm(VmError),
    /// A page-table operation failed.
    Pt(PtError),
    /// A physical-memory operation failed.
    Mem(MemError),
    /// An access faulted inside a live run sharded across host threads,
    /// whose proof said no access could.  A sharded group cannot enter the
    /// kernel (other groups are walking the same page tables), so the run
    /// stops here instead of handling the fault out of order.
    ShardedFault {
        /// Index of the simulated thread that faulted.
        thread: usize,
        /// Index of the faulting access in that thread's stream.
        access: u64,
    },
    /// A host worker of a sharded live run panicked; its threads' results
    /// are lost.
    ShardWorkerPanicked {
        /// Index of the first simulated thread the worker was running.
        thread: usize,
    },
}

impl fmt::Display for MitosisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MitosisError::InvalidSocket { socket } => {
                write!(f, "replication target {socket} does not exist")
            }
            MitosisError::EmptyMask => write!(f, "replication mask is empty"),
            MitosisError::PolicyDisabled => {
                write!(f, "mitosis is disabled by the system-wide policy")
            }
            MitosisError::Vm(err) => write!(f, "virtual memory error: {err}"),
            MitosisError::Pt(err) => write!(f, "page-table error: {err}"),
            MitosisError::Mem(err) => write!(f, "memory error: {err}"),
            MitosisError::ShardedFault { thread, access } => write!(
                f,
                "thread {thread} faulted at access {access} of a sharded live run \
                 (the no-fault proof did not cover it)"
            ),
            MitosisError::ShardWorkerPanicked { thread } => write!(
                f,
                "the host worker running thread {thread} of a sharded live run panicked"
            ),
        }
    }
}

impl Error for MitosisError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MitosisError::Vm(err) => Some(err),
            MitosisError::Pt(err) => Some(err),
            MitosisError::Mem(err) => Some(err),
            _ => None,
        }
    }
}

impl From<VmError> for MitosisError {
    fn from(err: VmError) -> Self {
        MitosisError::Vm(err)
    }
}

impl From<PtError> for MitosisError {
    fn from(err: PtError) -> Self {
        match err {
            PtError::Mem(mem) => MitosisError::Mem(mem),
            other => MitosisError::Pt(other),
        }
    }
}

impl From<MemError> for MitosisError {
    fn from(err: MemError) -> Self {
        MitosisError::Mem(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_sources() {
        let err: MitosisError = MemError::MachineOutOfMemory.into();
        assert!(matches!(err, MitosisError::Mem(_)));
        assert!(err.source().is_some());
        let err: MitosisError = PtError::Mem(MemError::MachineOutOfMemory).into();
        assert!(matches!(err, MitosisError::Mem(_)));
        assert!(MitosisError::EmptyMask.source().is_none());
        assert!(MitosisError::PolicyDisabled
            .to_string()
            .contains("disabled"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<E: Error + Send + Sync + 'static>() {}
        assert_bounds::<MitosisError>();
    }
}
