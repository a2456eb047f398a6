//! Balance and payment amounts.

use crate::U256;

/// An amount of currency in wei (the smallest Ethereum unit).
///
/// The off-chain protocol moves money in whole wei; the newtype prevents a
/// payment amount from being confused with, say, a sequence number — both are
/// integers but mixing them up would be a protocol bug.
///
/// Arithmetic on `Wei` is **checked**: channel accounting must never wrap, so
/// the saturating / checked forms are the only ones offered.
///
/// # Example
///
/// ```
/// use tinyevm_types::Wei;
///
/// let deposit = Wei::from_eth_milli(10);           // 0.010 ETH
/// let fee = Wei::new(2_000_000_000_000_000u64.into()); // 0.002 ETH
/// assert_eq!(deposit.checked_sub(fee).unwrap(), Wei::from_eth_milli(8));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Wei(pub U256);

impl Wei {
    /// Zero wei.
    pub const ZERO: Wei = Wei(U256::ZERO);

    /// Number of wei in one ether (10^18).
    pub const WEI_PER_ETH: u128 = 1_000_000_000_000_000_000;

    /// Wraps a raw amount.
    #[inline]
    pub const fn new(amount: U256) -> Self {
        Wei(amount)
    }

    /// Builds an amount from whole ether.
    pub fn from_eth(eth: u64) -> Self {
        Wei(U256::from(eth as u128 * Self::WEI_PER_ETH))
    }

    /// Builds an amount from milliether (1/1000 ETH), a convenient size for
    /// the micro-payments in the parking scenario.
    pub fn from_eth_milli(milli: u64) -> Self {
        Wei(U256::from(milli as u128 * (Self::WEI_PER_ETH / 1000)))
    }

    /// The raw amount.
    #[inline]
    pub const fn amount(&self) -> U256 {
        self.0
    }

    /// Returns `true` for a zero amount.
    pub fn is_zero(&self) -> bool {
        self.0.is_zero()
    }

    /// Checked addition; `None` if the sum exceeds 2^256-1.
    pub fn checked_add(self, rhs: Wei) -> Option<Wei> {
        self.0.checked_add(rhs.0).map(Wei)
    }

    /// Checked subtraction; `None` if the result would be negative.
    pub fn checked_sub(self, rhs: Wei) -> Option<Wei> {
        self.0.checked_sub(rhs.0).map(Wei)
    }

    /// Saturating subtraction, clamping at zero.
    pub fn saturating_sub(self, rhs: Wei) -> Wei {
        self.checked_sub(rhs).unwrap_or(Wei::ZERO)
    }

    /// Saturating addition, clamping at the maximum value.
    pub fn saturating_add(self, rhs: Wei) -> Wei {
        self.checked_add(rhs).unwrap_or(Wei(U256::MAX))
    }
}

impl From<U256> for Wei {
    fn from(v: U256) -> Self {
        Wei(v)
    }
}

impl From<u64> for Wei {
    fn from(v: u64) -> Self {
        Wei(U256::from(v))
    }
}

impl core::fmt::Display for Wei {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} wei", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert!(Wei::ZERO.is_zero());
        assert_eq!(Wei::from(5u64).amount(), U256::from(5u64));
        assert_eq!(
            Wei::from_eth(1).amount(),
            U256::from(1_000_000_000_000_000_000u128)
        );
        assert_eq!(
            Wei::from_eth_milli(1500),
            Wei::from_eth(1)
                .checked_add(Wei::from_eth_milli(500))
                .unwrap()
        );
    }

    #[test]
    fn checked_arithmetic() {
        let a = Wei::from(10u64);
        let b = Wei::from(3u64);
        assert_eq!(a.checked_add(b), Some(Wei::from(13u64)));
        assert_eq!(a.checked_sub(b), Some(Wei::from(7u64)));
        assert_eq!(b.checked_sub(a), None);
        assert_eq!(Wei(U256::MAX).checked_add(Wei::from(1u64)), None);
    }

    #[test]
    fn saturating_arithmetic() {
        let a = Wei::from(10u64);
        let b = Wei::from(30u64);
        assert_eq!(a.saturating_sub(b), Wei::ZERO);
        assert_eq!(b.saturating_sub(a), Wei::from(20u64));
        assert_eq!(Wei(U256::MAX).saturating_add(a), Wei(U256::MAX));
    }

    #[test]
    fn ordering_and_display() {
        assert!(Wei::from(1u64) < Wei::from(2u64));
        assert_eq!(format!("{}", Wei::from(42u64)), "42 wei");
    }
}
