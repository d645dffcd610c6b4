//! Error type for schedule construction.

use std::error::Error;
use std::fmt;

/// Errors raised while validating a [`crate::DiskLayout`] or generating a
/// [`crate::BroadcastProgram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// A layout must have at least one disk.
    NoDisks,
    /// Disk sizes and relative frequencies must have the same length.
    LengthMismatch {
        /// Number of disk sizes supplied.
        sizes: usize,
        /// Number of relative frequencies supplied.
        freqs: usize,
    },
    /// Every disk must hold at least one page.
    EmptyDisk {
        /// Index (0-based) of the offending disk.
        disk: usize,
    },
    /// Relative frequencies must be positive integers (Section 2.2).
    ZeroFrequency {
        /// Index (0-based) of the offending disk.
        disk: usize,
    },
    /// Disks must be ordered fastest to slowest (frequencies non-increasing),
    /// matching the paper's convention that disk 1 is the fastest.
    UnorderedFrequencies,
    /// The program would be empty (no pages at all).
    EmptyProgram,
    /// A broadcast plan must have at least one channel.
    NoChannels,
    /// Striping the layout left a channel with no pages (more channels than
    /// the largest disk can populate).
    EmptyChannel {
        /// Index (0-based) of the offending channel.
        channel: usize,
    },
    /// A coding configuration was rejected (rate out of range, zero group).
    InvalidCoding {
        /// Human-readable reason.
        reason: &'static str,
    },
    /// A page weight given to the layout optimizer was NaN, infinite or
    /// negative.
    InvalidWeight {
        /// Index (0-based) of the offending page.
        page: usize,
    },
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::NoDisks => write!(f, "a disk layout needs at least one disk"),
            SchedError::LengthMismatch { sizes, freqs } => write!(
                f,
                "layout has {sizes} disk sizes but {freqs} relative frequencies"
            ),
            SchedError::EmptyDisk { disk } => {
                write!(f, "disk {} has no pages", disk + 1)
            }
            SchedError::ZeroFrequency { disk } => {
                write!(
                    f,
                    "disk {} has relative frequency 0 (must be >= 1)",
                    disk + 1
                )
            }
            SchedError::UnorderedFrequencies => write!(
                f,
                "relative frequencies must be non-increasing (disk 1 is the fastest)"
            ),
            SchedError::EmptyProgram => write!(f, "broadcast program contains no pages"),
            SchedError::NoChannels => write!(f, "a broadcast plan needs at least one channel"),
            SchedError::EmptyChannel { channel } => {
                write!(
                    f,
                    "channel {channel} has no pages (too many channels for this layout)"
                )
            }
            SchedError::InvalidCoding { reason } => {
                write!(f, "invalid coding config: {reason}")
            }
            SchedError::InvalidWeight { page } => write!(
                f,
                "page {page} has an invalid weight (must be finite and >= 0)"
            ),
        }
    }
}

impl Error for SchedError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            SchedError::NoDisks.to_string(),
            "a disk layout needs at least one disk"
        );
        assert_eq!(
            SchedError::LengthMismatch { sizes: 2, freqs: 3 }.to_string(),
            "layout has 2 disk sizes but 3 relative frequencies"
        );
        assert_eq!(
            SchedError::EmptyDisk { disk: 0 }.to_string(),
            "disk 1 has no pages"
        );
        assert!(SchedError::ZeroFrequency { disk: 1 }
            .to_string()
            .contains("disk 2"));
        assert_eq!(
            SchedError::InvalidWeight { page: 7 }.to_string(),
            "page 7 has an invalid weight (must be finite and >= 0)"
        );
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn Error> = Box::new(SchedError::EmptyProgram);
        assert!(e.to_string().contains("no pages"));
    }
}
