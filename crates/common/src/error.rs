//! Workspace-wide error type.
//!
//! Every layer of the engine returns [`Result<T>`]. The variants are chosen
//! so that callers can distinguish the errors they must *handle as part of
//! the protocol* (deadlock victim, lock timeout, serialization conflict)
//! from genuine failures (I/O, corruption, misuse).

use crate::ids::TxnId;
use std::fmt;

/// Convenience alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// The workspace-wide error enum.
#[derive(Debug)]
pub enum Error {
    /// Underlying file I/O failed and is not expected to succeed on retry
    /// (missing file, permission, device gone).
    Io(std::io::Error),
    /// Underlying file I/O failed *transiently*: the same operation may
    /// succeed if re-issued (interrupted syscall, momentary device hiccup,
    /// injected transient fault). Retry layers treat this as retryable;
    /// everything in [`Error::Io`] is terminal.
    IoTransient(std::io::Error),
    /// On-disk bytes did not decode as expected (torn page, bad magic, ...).
    Corruption(String),
    /// A page, slot, or record that should exist was not found.
    NotFound(String),
    /// Insertion of a key that already exists in a unique index.
    DuplicateKey(String),
    /// The transaction was chosen as a deadlock victim and must roll back.
    DeadlockVictim {
        /// The victim transaction.
        txn: TxnId,
    },
    /// A lock request waited longer than the configured timeout.
    LockTimeout {
        /// The waiting transaction.
        txn: TxnId,
        /// Human-readable name of the contested resource.
        what: String,
    },
    /// The transaction conflicts with a committed peer under snapshot rules.
    SerializationConflict(String),
    /// The buffer pool has no evictable frame (all pages pinned).
    BufferExhausted,
    /// A record or key is too large to ever fit on a page.
    RecordTooLarge {
        /// Offending record size in bytes.
        size: usize,
        /// Maximum admissible size.
        max: usize,
    },
    /// API misuse: operating on a finished transaction, wrong schema, etc.
    InvalidOperation(String),
    /// Catalog-level schema error (unknown column, type mismatch, ...).
    Schema(String),
    /// A runtime value's type does not match the declared aggregate or
    /// column type (e.g. a float delta reaching a SUM(int) aggregate).
    /// Unlike [`Error::Schema`], this is caught at execution time — the
    /// statement is rejected rather than silently coercing the value.
    TypeMismatch {
        /// What was expected, e.g. `"SumInt delta"`.
        expected: String,
        /// What actually arrived, e.g. `"Float(1.5)"`.
        got: String,
    },
    /// The transaction was explicitly rolled back by the user or the engine.
    RolledBack {
        /// The rolled-back transaction.
        txn: TxnId,
        /// Why it was rolled back.
        reason: String,
    },
    /// The engine is in the `DegradedReadOnly` health state: the durable
    /// write path exhausted its retries, so new write work is rejected while
    /// reads continue to be served. Retryable — the device may recover and a
    /// health probe will restore write service.
    Degraded {
        /// What drove the engine into the degraded state.
        reason: String,
    },
    /// The engine is fenced: an unrecoverable invariant violation (e.g.
    /// corruption on the commit path) stopped all service. Not retryable.
    Fenced {
        /// What fenced the engine.
        reason: String,
    },
}

impl Error {
    /// True for errors that the concurrency-control protocol *expects* a
    /// client to handle by aborting and retrying the transaction.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            Error::DeadlockVictim { .. }
                | Error::LockTimeout { .. }
                | Error::SerializationConflict(_)
                | Error::IoTransient(_)
                | Error::Degraded { .. }
        )
    }

    /// True only for transient I/O failures — the class the [`crate::retry`]
    /// layer is allowed to absorb by re-issuing the same physical operation.
    /// Protocol-level retryables (deadlock, timeout) are *not* transient I/O:
    /// those must bubble up so the whole transaction restarts.
    pub fn is_transient_io(&self) -> bool {
        matches!(self, Error::IoTransient(_))
    }

    /// Shorthand constructor for corruption errors.
    pub fn corruption(msg: impl Into<String>) -> Self {
        Error::Corruption(msg.into())
    }

    /// Shorthand constructor for invalid-operation errors.
    pub fn invalid(msg: impl Into<String>) -> Self {
        Error::InvalidOperation(msg.into())
    }

    /// Shorthand constructor for runtime type-mismatch errors.
    pub fn type_mismatch(expected: impl Into<String>, got: impl Into<String>) -> Self {
        Error::TypeMismatch { expected: expected.into(), got: got.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io(e) => write!(f, "i/o error: {e}"),
            Error::IoTransient(e) => write!(f, "transient i/o error: {e}"),
            Error::Corruption(m) => write!(f, "corruption: {m}"),
            Error::NotFound(m) => write!(f, "not found: {m}"),
            Error::DuplicateKey(m) => write!(f, "duplicate key: {m}"),
            Error::DeadlockVictim { txn } => {
                write!(f, "transaction {txn} chosen as deadlock victim")
            }
            Error::LockTimeout { txn, what } => {
                write!(f, "transaction {txn} timed out waiting for {what}")
            }
            Error::SerializationConflict(m) => write!(f, "serialization conflict: {m}"),
            Error::BufferExhausted => write!(f, "buffer pool exhausted (all frames pinned)"),
            Error::RecordTooLarge { size, max } => {
                write!(f, "record of {size} bytes exceeds page capacity {max}")
            }
            Error::InvalidOperation(m) => write!(f, "invalid operation: {m}"),
            Error::Schema(m) => write!(f, "schema error: {m}"),
            Error::TypeMismatch { expected, got } => {
                write!(f, "type mismatch: expected {expected}, got {got}")
            }
            Error::RolledBack { txn, reason } => {
                write!(f, "transaction {txn} rolled back: {reason}")
            }
            Error::Degraded { reason } => {
                write!(f, "engine degraded to read-only: {reason}")
            }
            Error::Fenced { reason } => write!(f, "engine fenced: {reason}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) | Error::IoTransient(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryable_classification() {
        assert!(Error::DeadlockVictim { txn: TxnId(1) }.is_retryable());
        assert!(Error::LockTimeout {
            txn: TxnId(1),
            what: "k".into()
        }
        .is_retryable());
        assert!(Error::SerializationConflict("w".into()).is_retryable());
        assert!(!Error::BufferExhausted.is_retryable());
        assert!(!Error::corruption("x").is_retryable());
    }

    #[test]
    fn io_transient_vs_permanent() {
        let transient = Error::IoTransient(std::io::Error::other("hiccup"));
        let permanent = Error::Io(std::io::Error::other("dead"));
        assert!(transient.is_retryable());
        assert!(transient.is_transient_io());
        assert!(!permanent.is_retryable());
        assert!(!permanent.is_transient_io());
        // Protocol retryables are not transient I/O.
        assert!(!Error::DeadlockVictim { txn: TxnId(1) }.is_transient_io());
        assert!(std::error::Error::source(&transient).is_some());
    }

    #[test]
    fn health_errors_classified() {
        let d = Error::Degraded { reason: "log device down".into() };
        let f = Error::Fenced { reason: "corruption".into() };
        assert!(d.is_retryable(), "degraded is retryable (device may heal)");
        assert!(!f.is_retryable(), "fenced is terminal");
        assert!(!d.is_transient_io());
        assert!(d.to_string().contains("read-only"));
        assert!(f.to_string().contains("fenced"));
    }

    #[test]
    fn type_mismatch_is_terminal_and_informative() {
        let e = Error::type_mismatch("SumInt delta", "Float(1.5)");
        assert!(!e.is_retryable(), "a typing bug is not retryable");
        assert!(!e.is_transient_io());
        let s = e.to_string();
        assert!(s.contains("SumInt delta") && s.contains("Float(1.5)"));
    }

    #[test]
    fn display_is_informative() {
        let e = Error::RecordTooLarge { size: 9000, max: 8000 };
        assert!(e.to_string().contains("9000"));
        let e = Error::DeadlockVictim { txn: TxnId(42) };
        assert!(e.to_string().contains("42"));
    }

    #[test]
    fn io_error_source_preserved() {
        let io = std::io::Error::other("boom");
        let e: Error = io.into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
