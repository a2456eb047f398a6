//! Link-layer node addressing.

/// An IEEE 802.15.4-style short address identifying one node on the
/// low-power wireless medium.
///
/// Every [`Frame`](crate::Frame) names its source and destination with a
/// `NodeAddr`, every [`Link`](crate::Link) is built between two of them,
/// and a [`SharedMedium`](crate::SharedMedium) keys its per-endpoint
/// accounting by them. The inner value is the 16-bit short address that
/// goes on the air in the frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeAddr(pub u16);

impl NodeAddr {
    /// Builds an address from its 16-bit short-address value.
    pub const fn new(value: u16) -> Self {
        NodeAddr(value)
    }

    /// The 16-bit short-address value that goes in the frame header.
    pub const fn value(self) -> u16 {
        self.0
    }
}

impl From<u16> for NodeAddr {
    fn from(value: u16) -> Self {
        NodeAddr(value)
    }
}

impl core::fmt::Display for NodeAddr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:#06x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_fixed_width_hex() {
        assert_eq!(NodeAddr::new(0x51).to_string(), "0x0051");
        assert_eq!(NodeAddr::new(0xBEEF).to_string(), "0xbeef");
    }

    #[test]
    fn conversions_round_trip() {
        let addr = NodeAddr::from(42u16);
        assert_eq!(addr.value(), 42);
        assert_eq!(NodeAddr::new(42), addr);
        assert!(NodeAddr::new(1) < NodeAddr::new(2));
    }
}
