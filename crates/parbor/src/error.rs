//! Error type for the PARBOR algorithm crate.

use std::error::Error;
use std::fmt;

use parbor_dram::DramError;

/// Errors reported by the PARBOR pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParborError {
    /// The underlying device rejected an operation.
    Device(DramError),
    /// The victim set is empty, so neighbor locations cannot be determined.
    NoVictims,
    /// The recursion converged on no distances (all filtered as noise).
    NoDistances,
    /// A configuration value was invalid.
    InvalidConfig(String),
}

impl fmt::Display for ParborError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParborError::Device(e) => write!(f, "device error: {e}"),
            ParborError::NoVictims => write!(f, "no data-dependent victims discovered"),
            ParborError::NoDistances => {
                write!(
                    f,
                    "recursion found no neighbor distances above the noise floor"
                )
            }
            ParborError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl Error for ParborError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParborError::Device(e) => Some(e),
            _ => None,
        }
    }
}

/// Checks a checkpointed round cursor against its stage's round count, so a
/// corrupted checkpoint fails with an error naming the field instead of
/// underflowing.
pub(crate) fn check_round(
    field: &str,
    next_round: usize,
    rounds: usize,
) -> Result<(), ParborError> {
    if next_round > rounds {
        return Err(ParborError::InvalidConfig(format!(
            "checkpoint {field} is {next_round}, past the stage's {rounds} rounds"
        )));
    }
    Ok(())
}

impl From<DramError> for ParborError {
    fn from(e: DramError) -> Self {
        ParborError::Device(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_errors_convert() {
        let e: ParborError = DramError::InvalidConfig("x".into()).into();
        assert!(matches!(e, ParborError::Device(_)));
        assert!(e.source().is_some());
    }

    #[test]
    fn display_is_informative() {
        assert!(ParborError::NoVictims.to_string().contains("victims"));
    }
}
