//! The serve-side error type: every fallible server path returns
//! [`ServeError`] instead of panicking, so a production deployment can
//! degrade, retry or surface the failure rather than die.

use crate::admission::AdmissionError;
use crate::session::SessionId;
use std::fmt;

/// Why a frame-server operation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The session was rejected at admission.
    Admission(AdmissionError),
    /// No session with this id was ever admitted.
    UnknownSession {
        /// The offending id.
        id: SessionId,
    },
    /// A streaming-only operation (pose ingestion, stream close) was applied
    /// to a whole-trajectory session.
    NotStreaming {
        /// The session.
        id: SessionId,
    },
    /// A pose was pushed after [`close_stream`](crate::Fleet::close_stream).
    StreamClosed {
        /// The session.
        id: SessionId,
    },
    /// An eviction was requested from an empty reference cache.
    EmptyEviction,
    /// The session's shard died and no surviving shard could adopt it.
    SessionLost {
        /// The session.
        id: SessionId,
    },
    /// Every shard in the fleet is dead; no operation can be routed.
    FleetDown,
    /// The server is saturated: the pending-admission queue is full and this
    /// request was the predicted-worst SLO risk, so it was pushed back
    /// instead of queued. Explicit backpressure — the client should resubmit
    /// after `retry_after_s` (the replay harness does, with seeded jitter).
    Overloaded {
        /// Simulated seconds the client should wait before resubmitting.
        retry_after_s: f64,
    },
    /// The submission itself is malformed — rejected at the door, before
    /// admission, routing or the queue saw it, so nothing was admitted,
    /// queued or counted.
    InvalidSubmission {
        /// Which field was wrong, and how.
        reason: &'static str,
    },
    /// A pushed pose cannot place a camera: a non-finite position, a
    /// non-finite rotation or a zero quaternion. Refused at the door; the
    /// session's stream is as it was.
    InvalidPose {
        /// The session.
        id: SessionId,
        /// Which part of the pose was wrong.
        reason: &'static str,
    },
    /// A configuration is malformed — refused before anything was built.
    InvalidConfig {
        /// Which field was wrong, and how.
        reason: &'static str,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Admission(e) => write!(f, "admission rejected: {e}"),
            ServeError::UnknownSession { id } => write!(f, "unknown session {id}"),
            ServeError::NotStreaming { id } => {
                write!(f, "session {id} is not streaming (whole-trajectory)")
            }
            ServeError::StreamClosed { id } => {
                write!(f, "session {id}'s pose stream is closed")
            }
            ServeError::EmptyEviction => write!(f, "eviction requested from an empty cache"),
            ServeError::SessionLost { id } => {
                write!(f, "session {id} was lost: its shard died with no survivor")
            }
            ServeError::FleetDown => write!(f, "every shard in the fleet is dead"),
            ServeError::Overloaded { retry_after_s } => {
                write!(f, "server overloaded; retry after {retry_after_s}s")
            }
            ServeError::InvalidSubmission { reason } => write!(f, "invalid submission: {reason}"),
            ServeError::InvalidPose { id, reason } => {
                write!(f, "invalid pose for session {id}: {reason}")
            }
            ServeError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Admission(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AdmissionError> for ServeError {
    fn from(e: AdmissionError) -> Self {
        ServeError::Admission(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_converts() {
        let e: ServeError = AdmissionError::SessionLimit { max_sessions: 3 }.into();
        assert!(matches!(e, ServeError::Admission(_)));
        assert!(e.to_string().contains("admission rejected"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(ServeError::UnknownSession { id: 7 }
            .to_string()
            .contains('7'));
        assert!(std::error::Error::source(&ServeError::EmptyEviction).is_none());
        let over = ServeError::Overloaded {
            retry_after_s: 0.25,
        };
        assert!(over.to_string().contains("retry after 0.25s"));
        assert!(std::error::Error::source(&over).is_none());
    }
}
