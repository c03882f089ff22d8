//! The error type shared across the Polystore++ workspace.

use std::fmt;

/// Errors produced by any Polystore++ component.
///
/// One workspace-wide error enum keeps cross-crate plumbing simple: every
/// crate's fallible API returns [`Result`], and the middleware can surface
/// any failure uniformly.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A referenced column does not exist.
    ColumnNotFound(String),
    /// A referenced table / collection / series does not exist.
    TableNotFound(String),
    /// A referenced engine is not registered with the middleware.
    EngineNotFound(String),
    /// A row or value does not match the expected schema.
    SchemaMismatch(String),
    /// Query text failed to parse.
    Parse(String),
    /// A semantically invalid program (type error, unknown reference).
    Semantic(String),
    /// A plan stage could not be executed.
    Execution(String),
    /// Data migration between engines failed.
    Migration(String),
    /// An optimizer invariant was violated or a design space was empty.
    Optimizer(String),
    /// Accelerator configuration or kernel launch failure.
    Accelerator(String),
    /// Invalid configuration supplied by the user.
    Config(String),
    /// Duplicate key or object on creation.
    AlreadyExists(String),
    /// Arbitrary invariant violation with context.
    Invalid(String),
    /// The query service shed load: admission queue full or shut down.
    Overloaded {
        /// Why admission shed the work.
        reason: String,
        /// Suggested client back-off before resubmitting, in simulated
        /// microseconds, derived from the admission queue depth and the
        /// recent mean service time (`0` = no estimate, e.g. shutdown).
        retry_after_micros: u64,
    },
    /// A partition spec or shard route resolved to zero shards.
    EmptyShardSet(String),
    /// A program's distribution plan was made at an engine-state epoch
    /// the registry has since left: the layout it scatters against may
    /// have moved, so the program must be optimized again.
    StalePlan {
        /// The epoch the plan was made at.
        planned: u64,
        /// The registry's epoch at execution.
        current: u64,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::ColumnNotFound(c) => write!(f, "column not found: {c}"),
            Error::TableNotFound(t) => write!(f, "table not found: {t}"),
            Error::EngineNotFound(e) => write!(f, "engine not found: {e}"),
            Error::SchemaMismatch(m) => write!(f, "schema mismatch: {m}"),
            Error::Parse(m) => write!(f, "parse error: {m}"),
            Error::Semantic(m) => write!(f, "semantic error: {m}"),
            Error::Execution(m) => write!(f, "execution error: {m}"),
            Error::Migration(m) => write!(f, "migration error: {m}"),
            Error::Optimizer(m) => write!(f, "optimizer error: {m}"),
            Error::Accelerator(m) => write!(f, "accelerator error: {m}"),
            Error::Config(m) => write!(f, "invalid configuration: {m}"),
            Error::AlreadyExists(m) => write!(f, "already exists: {m}"),
            Error::Invalid(m) => write!(f, "invalid operation: {m}"),
            Error::Overloaded {
                reason,
                retry_after_micros,
            } => {
                if *retry_after_micros > 0 {
                    write!(
                        f,
                        "service overloaded: {reason} (retry after {retry_after_micros}us)"
                    )
                } else {
                    write!(f, "service overloaded: {reason}")
                }
            }
            Error::EmptyShardSet(m) => write!(f, "empty shard set: {m}"),
            Error::StalePlan { planned, current } => write!(
                f,
                "stale plan: made at epoch {planned}, the registry is at epoch {current}"
            ),
        }
    }
}

impl Error {
    /// Build an [`Error::Overloaded`] with a back-off hint.
    ///
    /// `retry_after_micros` is the admission controller's estimate of how
    /// long (in simulated microseconds) the caller should wait before the
    /// queue has drained enough to admit a resubmission; pass `0` when no
    /// estimate exists (e.g. the service is shutting down).
    pub fn overloaded(reason: impl Into<String>, retry_after_micros: u64) -> Self {
        Error::Overloaded {
            reason: reason.into(),
            retry_after_micros,
        }
    }
}

impl std::error::Error for Error {}

/// Workspace-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }

    #[test]
    fn display_is_lowercase_and_nonempty() {
        let e = Error::TableNotFound("t".into());
        let s = e.to_string();
        assert!(s.starts_with("table not found"));
        assert!(!s.ends_with('.'));
    }
}
