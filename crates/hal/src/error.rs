//! Error type shared by every test-port backend.

use std::error::Error;
use std::fmt;

/// Errors reported by a test-port backend.
///
/// Named for its origin in the device simulator; every [`TestPort`]
/// implementation — simulator, replay, or future hardware port — reports
/// through this type.
///
/// [`TestPort`]: crate::TestPort
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DramError {
    /// An address (bank, row, or column) exceeded the chip geometry.
    AddressOutOfRange {
        /// The offending address, formatted for humans.
        what: String,
        /// The geometry limit that was exceeded.
        limit: String,
    },
    /// A row was read before ever being written.
    RowNeverWritten {
        /// The offending row, formatted for humans.
        row: String,
    },
    /// A row pattern did not match the row width.
    WidthMismatch {
        /// Width of the supplied data.
        got: usize,
        /// Width the geometry requires.
        expected: usize,
    },
    /// A configuration value was invalid.
    InvalidConfig(String),
    /// A backend-specific failure (corrupt transcript, replay divergence,
    /// device I/O) that no structured variant covers.
    Backend(String),
    /// A file in an on-disk format this build no longer reads.
    RetiredFormat {
        /// The file, formatted for humans.
        path: String,
        /// The retired format's magic.
        magic: &'static str,
    },
}

impl fmt::Display for DramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DramError::AddressOutOfRange { what, limit } => {
                write!(f, "address out of range: {what} (limit: {limit})")
            }
            DramError::RowNeverWritten { row } => {
                write!(f, "row read before first write: {row}")
            }
            DramError::WidthMismatch { got, expected } => {
                write!(f, "row width mismatch: got {got} bits, expected {expected}")
            }
            DramError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            DramError::Backend(msg) => write!(f, "backend failure: {msg}"),
            DramError::RetiredFormat { path, magic } => write!(
                f,
                "{path} is a {magic} file, a retired format this build no longer reads"
            ),
        }
    }
}

impl Error for DramError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_concise() {
        let e = DramError::WidthMismatch {
            got: 8,
            expected: 16,
        };
        let msg = e.to_string();
        assert!(msg.starts_with("row width mismatch"));
        assert!(!msg.ends_with('.'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DramError>();
    }
}
