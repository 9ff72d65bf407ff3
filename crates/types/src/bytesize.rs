//! Byte quantities with human-readable formatting.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Sub, SubAssign};

/// A quantity of bytes: document sizes, message sizes, cache capacities and
/// traffic totals.
///
/// Arithmetic saturates rather than wrapping, so accumulating traffic
/// counters can never overflow silently.
///
/// # Examples
///
/// ```
/// use wcc_types::ByteSize;
///
/// let total = ByteSize::from_kib(21) + ByteSize::from_bytes(512);
/// assert_eq!(total.as_u64(), 21 * 1024 + 512);
/// assert_eq!(ByteSize::from_mib(237).to_string(), "237.00 MiB");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteSize(u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// Creates a size from a raw byte count.
    pub const fn from_bytes(bytes: u64) -> Self {
        ByteSize(bytes)
    }

    /// Creates a size from kibibytes.
    pub const fn from_kib(kib: u64) -> Self {
        ByteSize(kib * 1024)
    }

    /// Creates a size from mebibytes.
    pub const fn from_mib(mib: u64) -> Self {
        ByteSize(mib * 1024 * 1024)
    }

    /// Creates a size from gibibytes.
    pub const fn from_gib(gib: u64) -> Self {
        ByteSize(gib * 1024 * 1024 * 1024)
    }

    /// The raw byte count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns `true` if the size is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies by an integer factor, saturating on overflow.
    pub const fn saturating_mul(self, factor: u64) -> ByteSize {
        ByteSize(self.0.saturating_mul(factor))
    }
}

impl From<u64> for ByteSize {
    fn from(bytes: u64) -> ByteSize {
        ByteSize(bytes)
    }
}

impl From<ByteSize> for u64 {
    fn from(size: ByteSize) -> u64 {
        size.0
    }
}

impl Add for ByteSize {
    type Output = ByteSize;

    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: ByteSize) {
        *self = *self + rhs;
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;

    fn sub(self, rhs: ByteSize) -> ByteSize {
        debug_assert!(self.0 >= rhs.0, "ByteSize subtraction underflow");
        ByteSize(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for ByteSize {
    fn sub_assign(&mut self, rhs: ByteSize) {
        *self = *self - rhs;
    }
}

impl Sum for ByteSize {
    fn sum<I: Iterator<Item = ByteSize>>(iter: I) -> ByteSize {
        iter.fold(ByteSize::ZERO, |acc, b| acc + b)
    }
}

impl fmt::Debug for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ByteSize({})", self.0)
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const KIB: u64 = 1024;
        const MIB: u64 = 1024 * KIB;
        const GIB: u64 = 1024 * MIB;
        if self.0 >= GIB {
            write!(f, "{:.2} GiB", self.0 as f64 / GIB as f64)
        } else if self.0 >= MIB {
            write!(f, "{:.2} MiB", self.0 as f64 / MIB as f64)
        } else if self.0 >= KIB {
            write!(f, "{:.2} KiB", self.0 as f64 / KIB as f64)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        assert_eq!(ByteSize::from_kib(1).as_u64(), 1024);
        assert_eq!(ByteSize::from_mib(1).as_u64(), 1 << 20);
        assert_eq!(ByteSize::from_gib(1).as_u64(), 1 << 30);
    }

    #[test]
    fn arithmetic_saturates() {
        let max = ByteSize::from_bytes(u64::MAX);
        assert_eq!((max + ByteSize::from_bytes(1)).as_u64(), u64::MAX);
        assert_eq!(
            ByteSize::from_bytes(1).saturating_sub(ByteSize::from_bytes(5)),
            ByteSize::ZERO
        );
        assert_eq!(max.saturating_mul(2).as_u64(), u64::MAX);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(ByteSize::from_bytes(100).to_string(), "100 B");
        assert_eq!(ByteSize::from_kib(21).to_string(), "21.00 KiB");
        assert_eq!(ByteSize::from_mib(448).to_string(), "448.00 MiB");
        assert_eq!(ByteSize::from_bytes(1_363_148_800).to_string(), "1.27 GiB");
    }

    #[test]
    fn summation() {
        let total: ByteSize = (1..=3).map(ByteSize::from_kib).sum();
        assert_eq!(total, ByteSize::from_kib(6));
    }
}
