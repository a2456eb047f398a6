//! 20-byte account and contract addresses.

use crate::{hex, ParseError, H256, U256};

/// An Ethereum-style 20-byte address identifying an externally-owned account
/// (an IoT node's key pair) or a contract (the on-chain template or an
/// off-chain payment channel).
///
/// # Example
///
/// ```
/// use tinyevm_types::Address;
///
/// let a = Address::from_low_u64(0x42);
/// assert_eq!(a.to_hex(), "0x0000000000000000000000000000000000000042");
/// assert_eq!(Address::from_hex(&a.to_hex())?, a);
/// # Ok::<(), tinyevm_types::ParseError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Address(pub [u8; 20]);

impl Address {
    /// The all-zero address, used by the EVM as "no address".
    pub const ZERO: Address = Address([0u8; 20]);

    /// Wraps a raw 20-byte array.
    #[inline]
    pub const fn from_bytes(bytes: [u8; 20]) -> Self {
        Address(bytes)
    }

    /// Builds an address whose last eight bytes hold `v` big-endian.
    pub fn from_low_u64(v: u64) -> Self {
        let mut bytes = [0u8; 20];
        bytes[12..].copy_from_slice(&v.to_be_bytes());
        Address(bytes)
    }

    /// Builds an address from a byte slice.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::WrongLength`] unless the slice is exactly 20
    /// bytes long.
    pub fn from_slice(slice: &[u8]) -> Result<Self, ParseError> {
        if slice.len() != 20 {
            return Err(ParseError::WrongLength {
                expected: 20,
                got: slice.len(),
            });
        }
        let mut bytes = [0u8; 20];
        bytes.copy_from_slice(slice);
        Ok(Address(bytes))
    }

    /// Parses a 40-digit hex string with optional `0x` prefix.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] for bad digits or a wrong length.
    pub fn from_hex(s: &str) -> Result<Self, ParseError> {
        let bytes = hex::decode(s)?;
        Self::from_slice(&bytes)
    }

    /// Takes the low 20 bytes of a hash — the Ethereum rule for deriving an
    /// address from the Keccak-256 of a public key or of RLP-encoded
    /// creation data.
    pub fn from_hash(hash: &H256) -> Self {
        let mut bytes = [0u8; 20];
        bytes.copy_from_slice(&hash.as_bytes()[12..]);
        Address(bytes)
    }

    /// Borrows the raw bytes.
    #[inline]
    pub const fn as_bytes(&self) -> &[u8; 20] {
        &self.0
    }

    /// Returns `true` if every byte is zero.
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&b| b == 0)
    }

    /// Lowercase hex string with `0x` prefix (always 42 characters).
    pub fn to_hex(&self) -> String {
        hex::encode_prefixed(&self.0)
    }

    /// Widens to a 256-bit word (zero-padded on the left), the form the EVM
    /// pushes on the stack for `CALLER` / `ADDRESS`.
    pub fn to_u256(&self) -> U256 {
        let mut bytes = [0u8; 32];
        bytes[12..].copy_from_slice(&self.0);
        U256::from_be_bytes(bytes)
    }

    /// Truncates a 256-bit word to its low 20 bytes — how the EVM interprets
    /// a stack word as an address.
    pub fn from_u256(value: U256) -> Self {
        let bytes = value.to_be_bytes();
        let mut out = [0u8; 20];
        out.copy_from_slice(&bytes[12..]);
        Address(out)
    }
}

impl From<[u8; 20]> for Address {
    fn from(bytes: [u8; 20]) -> Self {
        Address(bytes)
    }
}

impl AsRef<[u8]> for Address {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl core::fmt::Debug for Address {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Address({})", self.to_hex())
    }
}

impl core::fmt::Display for Address {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let full = hex::encode(&self.0);
        write!(f, "0x{}…{}", &full[..6], &full[34..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_constant() {
        assert!(Address::ZERO.is_zero());
        assert_eq!(Address::default(), Address::ZERO);
        assert!(!Address::from_low_u64(1).is_zero());
    }

    #[test]
    fn from_low_u64_places_bytes_at_end() {
        let a = Address::from_low_u64(0xbeef);
        assert_eq!(a.as_bytes()[18], 0xbe);
        assert_eq!(a.as_bytes()[19], 0xef);
        assert_eq!(a.as_bytes()[0], 0);
    }

    #[test]
    fn from_slice_validates_length() {
        assert!(Address::from_slice(&[0u8; 20]).is_ok());
        assert!(Address::from_slice(&[0u8; 19]).is_err());
        assert!(Address::from_slice(&[0u8; 21]).is_err());
    }

    #[test]
    fn hex_round_trip() {
        let a = Address::from_low_u64(0xdeadbeef);
        assert_eq!(Address::from_hex(&a.to_hex()).unwrap(), a);
        assert_eq!(a.to_hex().len(), 42);
        assert!(Address::from_hex("0x1234").is_err());
    }

    #[test]
    fn u256_round_trip_truncates_high_bytes() {
        let a = Address::from_low_u64(77);
        assert_eq!(Address::from_u256(a.to_u256()), a);
        // High bytes beyond 20 are dropped.
        let wide = U256::ONE.shl(200) + U256::from(77u64);
        assert_eq!(Address::from_u256(wide), a);
    }

    #[test]
    fn from_hash_takes_low_20_bytes() {
        let mut hash_bytes = [0u8; 32];
        for (i, b) in hash_bytes.iter_mut().enumerate() {
            *b = i as u8;
        }
        let addr = Address::from_hash(&H256::from_bytes(hash_bytes));
        assert_eq!(addr.as_bytes()[0], 12);
        assert_eq!(addr.as_bytes()[19], 31);
    }

    #[test]
    fn display_abbreviates() {
        let a = Address::from_low_u64(1);
        assert!(format!("{a}").contains('…'));
        assert!(format!("{a:?}").starts_with("Address(0x"));
    }
}
