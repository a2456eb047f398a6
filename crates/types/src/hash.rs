//! 32-byte hash values.

use crate::{hex, ParseError, U256};

/// A 256-bit (32-byte) hash, such as a Keccak-256 digest, a side-chain log
/// entry hash or a Merkle-Sum-Tree node hash.
///
/// # Example
///
/// ```
/// use tinyevm_types::H256;
///
/// let h = H256::from_low_u64(1);
/// assert_eq!(h.as_bytes()[31], 1);
/// assert!(H256::ZERO.is_zero());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct H256(pub [u8; 32]);

impl H256 {
    /// The all-zero hash.
    pub const ZERO: H256 = H256([0u8; 32]);

    /// Wraps a raw 32-byte array.
    #[inline]
    pub const fn from_bytes(bytes: [u8; 32]) -> Self {
        H256(bytes)
    }

    /// Builds a hash whose last eight bytes hold `v` in big-endian order.
    ///
    /// Mostly useful in tests and examples where a recognisable,
    /// deterministic value is needed.
    pub fn from_low_u64(v: u64) -> Self {
        let mut bytes = [0u8; 32];
        bytes[24..].copy_from_slice(&v.to_be_bytes());
        H256(bytes)
    }

    /// Builds a hash from a byte slice.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::WrongLength`] unless the slice is exactly 32
    /// bytes long.
    pub fn from_slice(slice: &[u8]) -> Result<Self, ParseError> {
        if slice.len() != 32 {
            return Err(ParseError::WrongLength {
                expected: 32,
                got: slice.len(),
            });
        }
        let mut bytes = [0u8; 32];
        bytes.copy_from_slice(slice);
        Ok(H256(bytes))
    }

    /// Parses a 64-digit hex string with optional `0x` prefix.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] for bad digits or a wrong length.
    pub fn from_hex(s: &str) -> Result<Self, ParseError> {
        let bytes = hex::decode(s)?;
        Self::from_slice(&bytes)
    }

    /// Borrows the raw bytes.
    #[inline]
    pub const fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Copies out the raw bytes.
    #[inline]
    pub const fn to_bytes(&self) -> [u8; 32] {
        self.0
    }

    /// Returns `true` if every byte is zero.
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&b| b == 0)
    }

    /// Lowercase hex string with `0x` prefix (always 66 characters).
    pub fn to_hex(&self) -> String {
        hex::encode_prefixed(&self.0)
    }

    /// Reinterprets the hash as a big-endian 256-bit integer.
    pub fn to_u256(&self) -> U256 {
        U256::from_be_bytes(self.0)
    }

    /// Bitwise XOR, useful for combining identifiers deterministically.
    pub fn xor(&self, other: &H256) -> H256 {
        let mut out = [0u8; 32];
        for i in 0..32 {
            out[i] = self.0[i] ^ other.0[i];
        }
        H256(out)
    }
}

impl From<[u8; 32]> for H256 {
    fn from(bytes: [u8; 32]) -> Self {
        H256(bytes)
    }
}

impl From<U256> for H256 {
    fn from(v: U256) -> Self {
        H256(v.to_be_bytes())
    }
}

impl From<H256> for U256 {
    fn from(h: H256) -> Self {
        h.to_u256()
    }
}

impl AsRef<[u8]> for H256 {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl core::fmt::Debug for H256 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "H256({})", self.to_hex())
    }
}

impl core::fmt::Display for H256 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Display abbreviates: 0x12345678…9abcdef0
        let full = hex::encode(&self.0);
        write!(f, "0x{}…{}", &full[..8], &full[56..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_constant() {
        assert!(H256::ZERO.is_zero());
        assert_eq!(H256::default(), H256::ZERO);
        assert!(!H256::from_low_u64(1).is_zero());
    }

    #[test]
    fn from_low_u64_places_bytes_at_end() {
        let h = H256::from_low_u64(0x0102);
        assert_eq!(h.as_bytes()[30], 0x01);
        assert_eq!(h.as_bytes()[31], 0x02);
        assert_eq!(h.as_bytes()[0], 0);
    }

    #[test]
    fn from_slice_validates_length() {
        assert!(H256::from_slice(&[0u8; 32]).is_ok());
        assert_eq!(
            H256::from_slice(&[0u8; 31]),
            Err(ParseError::WrongLength {
                expected: 32,
                got: 31
            })
        );
        assert!(H256::from_slice(&[0u8; 33]).is_err());
    }

    #[test]
    fn hex_round_trip() {
        let h = H256::from_low_u64(0xdeadbeef);
        let parsed = H256::from_hex(&h.to_hex()).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(h.to_hex().len(), 66);
        assert!(H256::from_hex("0x12").is_err());
    }

    #[test]
    fn u256_round_trip() {
        let v = U256::from(123_456_789u64);
        let h = H256::from(v);
        assert_eq!(h.to_u256(), v);
        assert_eq!(U256::from(h), v);
    }

    #[test]
    fn xor_combines() {
        let a = H256::from_low_u64(0b1100);
        let b = H256::from_low_u64(0b1010);
        assert_eq!(a.xor(&b), H256::from_low_u64(0b0110));
        assert_eq!(a.xor(&a), H256::ZERO);
    }

    #[test]
    fn display_abbreviates_and_debug_is_full() {
        let h = H256::from_low_u64(7);
        let display = format!("{h}");
        assert!(display.contains('…'));
        let debug = format!("{h:?}");
        assert!(debug.len() > display.len());
        assert!(debug.starts_with("H256(0x"));
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a = H256::from_low_u64(1);
        let b = H256::from_low_u64(2);
        assert!(a < b);
        let mut c = [0u8; 32];
        c[0] = 1;
        assert!(H256::from_bytes(c) > b);
    }
}
