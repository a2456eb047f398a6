//! A 256-bit unsigned integer with EVM semantics.
//!
//! The representation is four 64-bit little-endian limbs (`limbs[0]` is the
//! least-significant limb). All arithmetic operators wrap modulo 2^256, which
//! is exactly what the EVM's `ADD`, `MUL`, `SUB` opcodes specify; checked and
//! overflowing variants are provided for host-side code that wants to detect
//! overflow (for example balance accounting on the simulated main chain).

use crate::{hex, ParseError, U512};

/// Number of 64-bit limbs in a [`U256`].
pub const LIMBS: usize = 4;

/// A 256-bit unsigned integer.
///
/// # Example
///
/// ```
/// use tinyevm_types::U256;
///
/// let x = U256::from(10u64);
/// let y = U256::from_dec_str("32")?;
/// assert_eq!(x + y, U256::from(42u64));
/// assert_eq!(U256::MAX.wrapping_add(U256::ONE), U256::ZERO);
/// # Ok::<(), tinyevm_types::ParseError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct U256(pub(crate) [u64; LIMBS]);

impl U256 {
    /// The value `0`.
    pub const ZERO: U256 = U256([0, 0, 0, 0]);
    /// The value `1`.
    pub const ONE: U256 = U256([1, 0, 0, 0]);
    /// The largest representable value, `2^256 - 1`.
    pub const MAX: U256 = U256([u64::MAX; 4]);
    /// `2^255`, the most significant bit; the sign bit of the signed view.
    pub const SIGN_BIT: U256 = U256([0, 0, 0, 1 << 63]);

    /// Creates a value from raw little-endian limbs.
    #[inline]
    pub const fn from_limbs(limbs: [u64; LIMBS]) -> Self {
        U256(limbs)
    }

    /// Returns the raw little-endian limbs.
    #[inline]
    pub const fn limbs(&self) -> [u64; LIMBS] {
        self.0
    }

    /// Creates a value holding `v` in the least significant limb.
    #[inline]
    pub const fn from_u64(v: u64) -> Self {
        U256([v, 0, 0, 0])
    }

    /// Creates a value from a `u128`.
    #[inline]
    pub const fn from_u128(v: u128) -> Self {
        U256([v as u64, (v >> 64) as u64, 0, 0])
    }

    /// Returns the low 64 bits, discarding the rest.
    #[inline]
    pub const fn low_u64(&self) -> u64 {
        self.0[0]
    }

    /// Returns the low 128 bits, discarding the rest.
    #[inline]
    pub const fn low_u128(&self) -> u128 {
        (self.0[0] as u128) | ((self.0[1] as u128) << 64)
    }

    /// Converts to `u64` if the value fits.
    #[inline]
    pub fn to_u64(&self) -> Option<u64> {
        if self.0[1] == 0 && self.0[2] == 0 && self.0[3] == 0 {
            Some(self.0[0])
        } else {
            None
        }
    }

    /// Converts to `usize` if the value fits.
    ///
    /// This is the conversion the interpreter uses for memory offsets and
    /// jump destinations; anything that does not fit is treated as an
    /// out-of-range access by the caller.
    #[inline]
    pub fn to_usize(&self) -> Option<usize> {
        self.to_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// Returns `true` if the value is zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.0 == [0, 0, 0, 0]
    }

    /// Returns `true` if bit 255 is set (negative in the signed view).
    #[inline]
    pub fn is_negative(&self) -> bool {
        self.0[3] >> 63 == 1
    }

    /// Number of significant bits (position of the highest set bit + 1).
    ///
    /// Returns `0` for the value zero.
    pub fn bits(&self) -> u32 {
        for i in (0..LIMBS).rev() {
            if self.0[i] != 0 {
                return (i as u32) * 64 + (64 - self.0[i].leading_zeros());
            }
        }
        0
    }

    /// Number of leading zero bits (256 for the value zero).
    pub fn leading_zeros(&self) -> u32 {
        256 - self.bits()
    }

    /// Returns the value of bit `index` (0 = least significant).
    ///
    /// Bits at index 256 or above are always zero.
    pub fn bit(&self, index: usize) -> bool {
        if index >= 256 {
            return false;
        }
        self.0[index / 64] >> (index % 64) & 1 == 1
    }

    /// Returns byte `index` in little-endian order (byte 0 is the least
    /// significant). Bytes at index 32 or above are zero.
    pub fn byte_le(&self, index: usize) -> u8 {
        if index >= 32 {
            return 0;
        }
        (self.0[index / 8] >> ((index % 8) * 8)) as u8
    }

    /// The EVM `BYTE` opcode: returns the `index`-th byte counting from the
    /// **most** significant end (index 0 is the most significant byte).
    pub fn byte_be(&self, index: usize) -> u8 {
        if index >= 32 {
            return 0;
        }
        self.byte_le(31 - index)
    }

    // --- conversions ------------------------------------------------------

    /// Big-endian 32-byte representation.
    pub fn to_be_bytes(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, limb) in self.0.iter().rev().enumerate() {
            out[i * 8..(i + 1) * 8].copy_from_slice(&limb.to_be_bytes());
        }
        out
    }

    /// Little-endian 32-byte representation.
    pub fn to_le_bytes(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, limb) in self.0.iter().enumerate() {
            out[i * 8..(i + 1) * 8].copy_from_slice(&limb.to_le_bytes());
        }
        out
    }

    /// Builds a value from a big-endian 32-byte array.
    pub fn from_be_bytes(bytes: [u8; 32]) -> Self {
        let mut limbs = [0u64; LIMBS];
        for i in 0..LIMBS {
            let mut chunk = [0u8; 8];
            chunk.copy_from_slice(&bytes[i * 8..(i + 1) * 8]);
            limbs[LIMBS - 1 - i] = u64::from_be_bytes(chunk);
        }
        U256(limbs)
    }

    /// Builds a value from a big-endian slice of at most 32 bytes,
    /// left-padding with zeros (the EVM convention for `CALLDATALOAD` and
    /// stack pushes).
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::TooLong`] if the slice is longer than 32 bytes.
    pub fn from_be_slice(bytes: &[u8]) -> Result<Self, ParseError> {
        if bytes.len() > 32 {
            return Err(ParseError::TooLong {
                max: 32,
                got: bytes.len(),
            });
        }
        let mut buf = [0u8; 32];
        buf[32 - bytes.len()..].copy_from_slice(bytes);
        Ok(Self::from_be_bytes(buf))
    }

    /// Minimal big-endian encoding (no leading zero bytes; empty for zero).
    pub fn to_be_bytes_trimmed(&self) -> Vec<u8> {
        let bytes = self.to_be_bytes();
        let first = bytes.iter().position(|&b| b != 0).unwrap_or(32);
        bytes[first..].to_vec()
    }

    /// Parses a hexadecimal string with or without a `0x` prefix.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] if the string is empty, contains a non-hex
    /// character, or encodes a number wider than 256 bits.
    pub fn from_hex(s: &str) -> Result<Self, ParseError> {
        let s = s.strip_prefix("0x").unwrap_or(s);
        if s.is_empty() {
            return Err(ParseError::Empty);
        }
        if s.len() > 64 {
            return Err(ParseError::TooLong {
                max: 32,
                got: s.len().div_ceil(2),
            });
        }
        let mut value = U256::ZERO;
        for c in s.chars() {
            let digit = c.to_digit(16).ok_or(ParseError::InvalidHexDigit(c))? as u64;
            value = (value << 4) | U256::from_u64(digit);
        }
        Ok(value)
    }

    /// Parses a decimal string.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] if the string is empty, contains a non-digit
    /// character, or overflows 256 bits.
    pub fn from_dec_str(s: &str) -> Result<Self, ParseError> {
        if s.is_empty() {
            return Err(ParseError::Empty);
        }
        let mut value = U256::ZERO;
        for c in s.chars() {
            let digit = c.to_digit(10).ok_or(ParseError::InvalidHexDigit(c))? as u64;
            let (mul, overflow1) = value.overflowing_mul(U256::from_u64(10));
            let (add, overflow2) = mul.overflowing_add(U256::from_u64(digit));
            if overflow1 || overflow2 {
                return Err(ParseError::TooLong { max: 32, got: 33 });
            }
            value = add;
        }
        Ok(value)
    }

    /// Lower-hex string with a `0x` prefix and no leading zeros.
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0x0".to_string();
        }
        let s = hex::encode(&self.to_be_bytes());
        let trimmed = s.trim_start_matches('0');
        format!("0x{trimmed}")
    }

    /// Decimal string representation.
    pub fn to_dec_string(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut digits = Vec::new();
        let mut value = *self;
        let ten = U256::from_u64(10);
        while !value.is_zero() {
            let (q, r) = value.div_rem(ten);
            digits.push(char::from(b'0' + r.low_u64() as u8));
            value = q;
        }
        digits.iter().rev().collect()
    }

    // --- arithmetic -------------------------------------------------------

    /// Addition returning the wrapped result and an overflow flag.
    pub fn overflowing_add(self, rhs: U256) -> (U256, bool) {
        let mut out = [0u64; LIMBS];
        let mut carry = false;
        for i in 0..LIMBS {
            let (sum, c1) = self.0[i].overflowing_add(rhs.0[i]);
            let (sum, c2) = sum.overflowing_add(carry as u64);
            out[i] = sum;
            carry = c1 || c2;
        }
        (U256(out), carry)
    }

    /// Wrapping addition (modulo 2^256), the semantics of the EVM `ADD`.
    #[inline]
    pub fn wrapping_add(self, rhs: U256) -> U256 {
        self.overflowing_add(rhs).0
    }

    /// Checked addition, `None` on overflow.
    pub fn checked_add(self, rhs: U256) -> Option<U256> {
        match self.overflowing_add(rhs) {
            (v, false) => Some(v),
            _ => None,
        }
    }

    /// Subtraction returning the wrapped result and a borrow flag.
    pub fn overflowing_sub(self, rhs: U256) -> (U256, bool) {
        let mut out = [0u64; LIMBS];
        let mut borrow = false;
        for i in 0..LIMBS {
            let (diff, b1) = self.0[i].overflowing_sub(rhs.0[i]);
            let (diff, b2) = diff.overflowing_sub(borrow as u64);
            out[i] = diff;
            borrow = b1 || b2;
        }
        (U256(out), borrow)
    }

    /// Wrapping subtraction (modulo 2^256), the semantics of the EVM `SUB`.
    #[inline]
    pub fn wrapping_sub(self, rhs: U256) -> U256 {
        self.overflowing_sub(rhs).0
    }

    /// Checked subtraction, `None` on underflow.
    pub fn checked_sub(self, rhs: U256) -> Option<U256> {
        match self.overflowing_sub(rhs) {
            (v, false) => Some(v),
            _ => None,
        }
    }

    /// Multiplication returning the wrapped result and an overflow flag.
    pub fn overflowing_mul(self, rhs: U256) -> (U256, bool) {
        let wide = self.full_mul(rhs);
        let (lo, hi) = wide.split();
        (lo, !hi.is_zero())
    }

    /// Wrapping multiplication (modulo 2^256), the semantics of the EVM `MUL`.
    #[inline]
    pub fn wrapping_mul(self, rhs: U256) -> U256 {
        self.overflowing_mul(rhs).0
    }

    /// Checked multiplication, `None` on overflow.
    pub fn checked_mul(self, rhs: U256) -> Option<U256> {
        match self.overflowing_mul(rhs) {
            (v, false) => Some(v),
            _ => None,
        }
    }

    /// Full 512-bit product of two 256-bit values.
    pub fn full_mul(self, rhs: U256) -> U512 {
        let mut out = [0u64; 8];
        for i in 0..LIMBS {
            let mut carry = 0u128;
            for j in 0..LIMBS {
                let cur = out[i + j] as u128 + (self.0[i] as u128) * (rhs.0[j] as u128) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            out[i + LIMBS] = carry as u64;
        }
        U512::from_limbs(out)
    }

    /// Simultaneous quotient and remainder.
    ///
    /// Follows the EVM convention: division by zero yields `(0, 0)` instead
    /// of panicking, because `DIV`/`MOD` by zero must produce zero.
    pub fn div_rem(self, divisor: U256) -> (U256, U256) {
        if divisor.is_zero() {
            return (U256::ZERO, U256::ZERO);
        }
        if self < divisor {
            return (U256::ZERO, self);
        }
        if divisor.bits() <= 64 {
            let d = divisor.low_u64();
            let mut rem = 0u128;
            let mut out = [0u64; LIMBS];
            for i in (0..LIMBS).rev() {
                let cur = (rem << 64) | self.0[i] as u128;
                out[i] = (cur / d as u128) as u64;
                rem = cur % d as u128;
            }
            return (U256(out), U256::from_u64(rem as u64));
        }
        let (q, r) = divide_limbs(&self.0, &divisor.0);
        (U256(q), U256(r))
    }

    /// Quotient (zero when dividing by zero, per EVM `DIV`).
    #[inline]
    pub fn div(self, divisor: U256) -> U256 {
        self.div_rem(divisor).0
    }

    /// Remainder (zero when dividing by zero, per EVM `MOD`).
    #[inline]
    pub fn rem(self, divisor: U256) -> U256 {
        self.div_rem(divisor).1
    }

    /// `(self + rhs) mod modulus` computed without intermediate overflow
    /// (EVM `ADDMOD`). Returns zero when `modulus` is zero.
    pub fn add_mod(self, rhs: U256, modulus: U256) -> U256 {
        if modulus.is_zero() {
            return U256::ZERO;
        }
        let a = U512::from_u256(self);
        let b = U512::from_u256(rhs);
        let sum = a.wrapping_add(b);
        sum.rem_u256(modulus)
    }

    /// `(self * rhs) mod modulus` computed over the 512-bit product
    /// (EVM `MULMOD`). Returns zero when `modulus` is zero.
    pub fn mul_mod(self, rhs: U256, modulus: U256) -> U256 {
        if modulus.is_zero() {
            return U256::ZERO;
        }
        self.full_mul(rhs).rem_u256(modulus)
    }

    /// Wrapping exponentiation (EVM `EXP`): `self^exp mod 2^256`.
    pub fn wrapping_pow(self, mut exp: U256) -> U256 {
        let mut base = self;
        let mut result = U256::ONE;
        while !exp.is_zero() {
            if exp.bit(0) {
                result = result.wrapping_mul(base);
            }
            base = base.wrapping_mul(base);
            exp = exp >> 1;
        }
        result
    }

    /// Modular exponentiation: `self^exp mod modulus`.
    ///
    /// Returns zero when `modulus` is zero and one when `modulus` is one.
    pub fn pow_mod(self, mut exp: U256, modulus: U256) -> U256 {
        if modulus.is_zero() {
            return U256::ZERO;
        }
        if modulus == U256::ONE {
            return U256::ZERO;
        }
        let mut base = self.rem(modulus);
        let mut result = U256::ONE;
        while !exp.is_zero() {
            if exp.bit(0) {
                result = result.mul_mod(base, modulus);
            }
            base = base.mul_mod(base, modulus);
            exp = exp >> 1;
        }
        result
    }

    /// Two's-complement negation: `0 - self mod 2^256`.
    #[inline]
    pub fn wrapping_neg(self) -> U256 {
        U256::ZERO.wrapping_sub(self)
    }

    // --- shifts -----------------------------------------------------------

    /// Logical left shift; shifts of 256 or more produce zero (EVM `SHL`).
    pub fn shl(self, shift: u32) -> U256 {
        if shift >= 256 {
            return U256::ZERO;
        }
        let limb_shift = (shift / 64) as usize;
        let bit_shift = shift % 64;
        let mut out = [0u64; LIMBS];
        for i in (limb_shift..LIMBS).rev() {
            out[i] = self.0[i - limb_shift] << bit_shift;
            if bit_shift > 0 && i > limb_shift {
                out[i] |= self.0[i - limb_shift - 1] >> (64 - bit_shift);
            }
        }
        U256(out)
    }

    /// Logical right shift; shifts of 256 or more produce zero (EVM `SHR`).
    pub fn shr(self, shift: u32) -> U256 {
        if shift >= 256 {
            return U256::ZERO;
        }
        let limb_shift = (shift / 64) as usize;
        let bit_shift = shift % 64;
        let mut out = [0u64; LIMBS];
        for i in 0..LIMBS - limb_shift {
            out[i] = self.0[i + limb_shift] >> bit_shift;
            if bit_shift > 0 && i + limb_shift + 1 < LIMBS {
                out[i] |= self.0[i + limb_shift + 1] << (64 - bit_shift);
            }
        }
        U256(out)
    }

    /// Arithmetic (sign-extending) right shift, the EVM `SAR` semantics:
    /// shifting a negative value by 256 or more produces all ones.
    pub fn sar(self, shift: u32) -> U256 {
        let negative = self.is_negative();
        if shift >= 256 {
            return if negative { U256::MAX } else { U256::ZERO };
        }
        let logical = self.shr(shift);
        if negative && shift > 0 {
            // Fill the vacated high bits with ones.
            let fill = U256::MAX.shl(256 - shift);
            logical | fill
        } else {
            logical
        }
    }

    /// The EVM `SIGNEXTEND` operation: treat `self` as a signed integer of
    /// `byte_index + 1` bytes and sign-extend it to 256 bits.
    pub fn sign_extend(self, byte_index: U256) -> U256 {
        let Some(idx) = byte_index.to_usize() else {
            return self;
        };
        if idx >= 31 {
            return self;
        }
        let bit = idx * 8 + 7;
        let mask = (U256::ONE.shl(bit as u32 + 1)).wrapping_sub(U256::ONE);
        if self.bit(bit) {
            self | !mask
        } else {
            self & mask
        }
    }

    /// Integer square root (largest `r` with `r*r <= self`).
    pub fn isqrt(self) -> U256 {
        if self.is_zero() {
            return U256::ZERO;
        }
        let mut x = U256::ONE.shl(self.bits().div_ceil(2));
        loop {
            let y = (x.wrapping_add(self.div(x))) >> 1;
            if y >= x {
                return x;
            }
            x = y;
        }
    }
}

/// Knuth algorithm D long division for the general (multi-limb divisor) case.
///
/// `num` and `div` are little-endian limb arrays; `div` has at least two
/// significant limbs and `num >= div`.
fn divide_limbs(num: &[u64; 4], div: &[u64; 4]) -> ([u64; 4], [u64; 4]) {
    // Work with variable-length vectors of significant limbs.
    let n_len = significant_limbs(num);
    let d_len = significant_limbs(div);
    debug_assert!(d_len >= 2);

    // Normalize so the top bit of the divisor's top limb is set.
    let shift = div[d_len - 1].leading_zeros();
    let mut d = vec![0u64; d_len];
    let mut n = vec![0u64; n_len + 1];
    // Shift divisor left by `shift`.
    for i in (0..d_len).rev() {
        d[i] = div[i] << shift;
        if shift > 0 && i > 0 {
            d[i] |= div[i - 1] >> (64 - shift);
        }
    }
    // Shift numerator left by `shift` with an extra limb of headroom.
    for i in (0..n_len).rev() {
        n[i] = num[i] << shift;
        if shift > 0 && i > 0 {
            n[i] |= num[i - 1] >> (64 - shift);
        }
    }
    if shift > 0 {
        n[n_len] = num[n_len - 1] >> (64 - shift);
    }

    let mut quotient = [0u64; 4];
    let m = n_len - d_len; // number of quotient limbs minus one
    for j in (0..=m).rev() {
        // Estimate q_hat from the top two limbs of the remainder.
        let top = ((n[j + d_len] as u128) << 64) | n[j + d_len - 1] as u128;
        let mut q_hat = top / d[d_len - 1] as u128;
        let mut r_hat = top % d[d_len - 1] as u128;
        while q_hat >= (1u128 << 64)
            || q_hat * d[d_len - 2] as u128 > ((r_hat << 64) | n[j + d_len - 2] as u128)
        {
            q_hat -= 1;
            r_hat += d[d_len - 1] as u128;
            if r_hat >= (1u128 << 64) {
                break;
            }
        }

        // Multiply-subtract: n[j..j+d_len+1] -= q_hat * d.
        let mut borrow: i128 = 0;
        let mut carry: u128 = 0;
        for i in 0..d_len {
            let product = q_hat * d[i] as u128 + carry;
            carry = product >> 64;
            let sub = n[j + i] as i128 - (product as u64) as i128 - borrow;
            n[j + i] = sub as u64;
            borrow = if sub < 0 { 1 } else { 0 };
        }
        let sub = n[j + d_len] as i128 - carry as i128 - borrow;
        n[j + d_len] = sub as u64;

        if sub < 0 {
            // q_hat was one too large: add the divisor back.
            q_hat -= 1;
            let mut carry = 0u128;
            for i in 0..d_len {
                let sum = n[j + i] as u128 + d[i] as u128 + carry;
                n[j + i] = sum as u64;
                carry = sum >> 64;
            }
            n[j + d_len] = n[j + d_len].wrapping_add(carry as u64);
        }
        if j < 4 {
            quotient[j] = q_hat as u64;
        }
    }

    // Denormalize the remainder.
    let mut remainder = [0u64; 4];
    for i in 0..d_len {
        remainder[i] = n[i] >> shift;
        if shift > 0 && i + 1 < n.len() {
            remainder[i] |= n[i + 1] << (64 - shift);
        }
    }
    (quotient, remainder)
}

fn significant_limbs(limbs: &[u64; 4]) -> usize {
    for i in (0..4).rev() {
        if limbs[i] != 0 {
            return i + 1;
        }
    }
    1
}

// --- operator impls --------------------------------------------------------

impl core::ops::Add for U256 {
    type Output = U256;
    #[inline]
    fn add(self, rhs: U256) -> U256 {
        self.wrapping_add(rhs)
    }
}

impl core::ops::AddAssign for U256 {
    #[inline]
    fn add_assign(&mut self, rhs: U256) {
        *self = *self + rhs;
    }
}

impl core::ops::Sub for U256 {
    type Output = U256;
    #[inline]
    fn sub(self, rhs: U256) -> U256 {
        self.wrapping_sub(rhs)
    }
}

impl core::ops::SubAssign for U256 {
    #[inline]
    fn sub_assign(&mut self, rhs: U256) {
        *self = *self - rhs;
    }
}

impl core::ops::Mul for U256 {
    type Output = U256;
    #[inline]
    fn mul(self, rhs: U256) -> U256 {
        self.wrapping_mul(rhs)
    }
}

impl core::ops::Div for U256 {
    type Output = U256;
    #[inline]
    fn div(self, rhs: U256) -> U256 {
        self.div_rem(rhs).0
    }
}

impl core::ops::Rem for U256 {
    type Output = U256;
    #[inline]
    fn rem(self, rhs: U256) -> U256 {
        self.div_rem(rhs).1
    }
}

impl core::ops::BitAnd for U256 {
    type Output = U256;
    fn bitand(self, rhs: U256) -> U256 {
        U256([
            self.0[0] & rhs.0[0],
            self.0[1] & rhs.0[1],
            self.0[2] & rhs.0[2],
            self.0[3] & rhs.0[3],
        ])
    }
}

impl core::ops::BitOr for U256 {
    type Output = U256;
    fn bitor(self, rhs: U256) -> U256 {
        U256([
            self.0[0] | rhs.0[0],
            self.0[1] | rhs.0[1],
            self.0[2] | rhs.0[2],
            self.0[3] | rhs.0[3],
        ])
    }
}

impl core::ops::BitXor for U256 {
    type Output = U256;
    fn bitxor(self, rhs: U256) -> U256 {
        U256([
            self.0[0] ^ rhs.0[0],
            self.0[1] ^ rhs.0[1],
            self.0[2] ^ rhs.0[2],
            self.0[3] ^ rhs.0[3],
        ])
    }
}

impl core::ops::Not for U256 {
    type Output = U256;
    fn not(self) -> U256 {
        U256([!self.0[0], !self.0[1], !self.0[2], !self.0[3]])
    }
}

impl core::ops::Shl<u32> for U256 {
    type Output = U256;
    #[inline]
    fn shl(self, shift: u32) -> U256 {
        U256::shl(self, shift)
    }
}

impl core::ops::Shr<u32> for U256 {
    type Output = U256;
    #[inline]
    fn shr(self, shift: u32) -> U256 {
        U256::shr(self, shift)
    }
}

impl PartialOrd for U256 {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for U256 {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        for i in (0..LIMBS).rev() {
            match self.0[i].cmp(&other.0[i]) {
                core::cmp::Ordering::Equal => continue,
                non_eq => return non_eq,
            }
        }
        core::cmp::Ordering::Equal
    }
}

impl From<u8> for U256 {
    fn from(v: u8) -> Self {
        U256::from_u64(v as u64)
    }
}

impl From<u16> for U256 {
    fn from(v: u16) -> Self {
        U256::from_u64(v as u64)
    }
}

impl From<u32> for U256 {
    fn from(v: u32) -> Self {
        U256::from_u64(v as u64)
    }
}

impl From<u64> for U256 {
    fn from(v: u64) -> Self {
        U256::from_u64(v)
    }
}

impl From<u128> for U256 {
    fn from(v: u128) -> Self {
        U256::from_u128(v)
    }
}

impl From<usize> for U256 {
    fn from(v: usize) -> Self {
        U256::from_u64(v as u64)
    }
}

impl core::fmt::Debug for U256 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "U256({})", self.to_hex())
    }
}

impl core::fmt::Display for U256 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.to_dec_string())
    }
}

impl core::fmt::LowerHex for U256 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = self.to_hex();
        write!(f, "{}", s.strip_prefix("0x").unwrap_or(&s))
    }
}

impl core::fmt::UpperHex for U256 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = self.to_hex();
        write!(f, "{}", s.strip_prefix("0x").unwrap_or(&s).to_uppercase())
    }
}

impl core::fmt::Binary for U256 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut started = false;
        for i in (0..256).rev() {
            let bit = self.bit(i);
            if bit {
                started = true;
            }
            if started {
                write!(f, "{}", if bit { '1' } else { '0' })?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(v: u128) -> U256 {
        U256::from_u128(v)
    }

    #[test]
    fn zero_and_one_constants() {
        assert!(U256::ZERO.is_zero());
        assert_eq!(U256::ONE.low_u64(), 1);
        assert_eq!(U256::default(), U256::ZERO);
    }

    #[test]
    fn add_small_values() {
        assert_eq!(u(2) + u(3), u(5));
        assert_eq!(u(0) + u(0), u(0));
    }

    #[test]
    fn add_carries_across_limbs() {
        let a = U256::from_limbs([u64::MAX, 0, 0, 0]);
        assert_eq!(a + U256::ONE, U256::from_limbs([0, 1, 0, 0]));
        let b = U256::from_limbs([u64::MAX, u64::MAX, u64::MAX, 0]);
        assert_eq!(b + U256::ONE, U256::from_limbs([0, 0, 0, 1]));
    }

    #[test]
    fn add_wraps_at_max() {
        assert_eq!(U256::MAX.wrapping_add(U256::ONE), U256::ZERO);
        let (v, overflow) = U256::MAX.overflowing_add(U256::ONE);
        assert!(overflow);
        assert!(v.is_zero());
        assert_eq!(U256::MAX.checked_add(U256::ONE), None);
        assert_eq!(U256::MAX.checked_add(U256::ZERO), Some(U256::MAX));
    }

    #[test]
    fn sub_borrows_across_limbs() {
        let a = U256::from_limbs([0, 1, 0, 0]);
        assert_eq!(a - U256::ONE, U256::from_limbs([u64::MAX, 0, 0, 0]));
    }

    #[test]
    fn sub_wraps_below_zero() {
        assert_eq!(U256::ZERO.wrapping_sub(U256::ONE), U256::MAX);
        assert_eq!(U256::ZERO.checked_sub(U256::ONE), None);
    }

    #[test]
    fn mul_small_and_large() {
        assert_eq!(u(7) * u(6), u(42));
        assert_eq!(u(u64::MAX as u128) * u(2), u(u64::MAX as u128 * 2));
        // (2^128 - 1)^2 = 2^256 - 2^129 + 1, still fits.
        let a = U256::from_u128(u128::MAX);
        let sq = a * a;
        assert!(sq.bit(0));
        assert_eq!(sq.bits(), 256);
    }

    #[test]
    fn mul_overflow_detection() {
        let big = U256::ONE.shl(200);
        let (_, overflow) = big.overflowing_mul(big);
        assert!(overflow);
        assert_eq!(big.checked_mul(big), None);
        assert_eq!(u(3).checked_mul(u(4)), Some(u(12)));
    }

    #[test]
    fn div_rem_basic() {
        assert_eq!(u(10).div_rem(u(3)), (u(3), u(1)));
        assert_eq!(u(10).div_rem(u(10)), (u(1), u(0)));
        assert_eq!(u(3).div_rem(u(10)), (u(0), u(3)));
    }

    #[test]
    fn div_by_zero_is_zero() {
        assert_eq!(u(10).div(U256::ZERO), U256::ZERO);
        assert_eq!(u(10).rem(U256::ZERO), U256::ZERO);
    }

    #[test]
    fn div_rem_multi_limb_divisor() {
        // numerator = 2^200 + 12345, divisor = 2^100 + 7
        let num = U256::ONE.shl(200) + u(12345);
        let div = U256::ONE.shl(100) + u(7);
        let (q, r) = num.div_rem(div);
        assert_eq!(q * div + r, num);
        assert!(r < div);
    }

    #[test]
    fn div_rem_max_values() {
        let (q, r) = U256::MAX.div_rem(U256::MAX);
        assert_eq!(q, U256::ONE);
        assert_eq!(r, U256::ZERO);
        let (q, r) = U256::MAX.div_rem(u(2));
        assert_eq!(q, U256::MAX >> 1);
        assert_eq!(r, U256::ONE);
    }

    #[test]
    fn full_mul_splits_correctly() {
        let a = U256::MAX;
        let product = a.full_mul(a);
        // (2^256-1)^2 = 2^512 - 2^257 + 1
        let (lo, hi) = product.split();
        assert_eq!(lo, U256::ONE);
        assert_eq!(hi, U256::MAX - U256::ONE);
    }

    #[test]
    fn addmod_handles_overflow() {
        let m = u(100);
        assert_eq!(U256::MAX.add_mod(U256::MAX, m), {
            // (2^256-1)*2 mod 100
            let v = U256::MAX.rem(m).low_u64();
            u((v as u128) * 2 % 100)
        });
        assert_eq!(u(7).add_mod(u(9), u(5)), u(1));
        assert_eq!(u(7).add_mod(u(9), U256::ZERO), U256::ZERO);
    }

    #[test]
    fn mulmod_uses_full_product() {
        let a = U256::MAX;
        let b = U256::MAX;
        // (2^256-1)^2 mod (2^256-1) == 0
        assert_eq!(a.mul_mod(b, U256::MAX), U256::ZERO);
        assert_eq!(u(7).mul_mod(u(9), u(5)), u(3));
        assert_eq!(u(7).mul_mod(u(9), U256::ZERO), U256::ZERO);
    }

    #[test]
    fn pow_small() {
        assert_eq!(u(2).wrapping_pow(u(10)), u(1024));
        assert_eq!(u(0).wrapping_pow(u(0)), u(1)); // EVM: 0^0 = 1
        assert_eq!(u(5).wrapping_pow(u(0)), u(1));
        assert_eq!(u(0).wrapping_pow(u(5)), u(0));
    }

    #[test]
    fn pow_wraps() {
        assert_eq!(u(2).wrapping_pow(u(256)), U256::ZERO);
        assert_eq!(u(2).wrapping_pow(u(255)), U256::SIGN_BIT);
    }

    #[test]
    fn pow_mod_matches_naive() {
        let result = u(3).pow_mod(u(20), u(1000));
        // 3^20 = 3486784401; mod 1000 = 401
        assert_eq!(result, u(401));
        assert_eq!(u(3).pow_mod(u(20), U256::ZERO), U256::ZERO);
        assert_eq!(u(3).pow_mod(u(20), U256::ONE), U256::ZERO);
    }

    #[test]
    fn shl_shr_basic() {
        assert_eq!(u(1).shl(4), u(16));
        assert_eq!(u(16).shr(4), u(1));
        assert_eq!(u(1).shl(64), U256::from_limbs([0, 1, 0, 0]));
        assert_eq!(U256::from_limbs([0, 1, 0, 0]).shr(64), u(1));
        assert_eq!(u(1).shl(70), U256::from_limbs([0, 64, 0, 0]));
    }

    #[test]
    fn shl_shr_out_of_range() {
        assert_eq!(U256::MAX.shl(256), U256::ZERO);
        assert_eq!(U256::MAX.shr(256), U256::ZERO);
        assert_eq!(U256::MAX.shl(1000), U256::ZERO);
    }

    #[test]
    fn sar_positive_is_logical() {
        assert_eq!(u(16).sar(2), u(4));
        assert_eq!(u(16).sar(300), U256::ZERO);
    }

    #[test]
    fn sar_negative_fills_with_ones() {
        // -8 >> 1 == -4 in two's complement
        let minus_8 = u(8).wrapping_neg();
        let minus_4 = u(4).wrapping_neg();
        assert_eq!(minus_8.sar(1), minus_4);
        assert_eq!(minus_8.sar(300), U256::MAX);
        assert_eq!(U256::MAX.sar(255), U256::MAX);
    }

    #[test]
    fn sign_extend_behaves_like_evm() {
        // 0xff sign-extended from byte 0 is -1.
        assert_eq!(u(0xff).sign_extend(u(0)), U256::MAX);
        // 0x7f stays positive.
        assert_eq!(u(0x7f).sign_extend(u(0)), u(0x7f));
        // Index >= 31 leaves the value unchanged.
        assert_eq!(u(0xff).sign_extend(u(31)), u(0xff));
        assert_eq!(u(0xff).sign_extend(U256::MAX), u(0xff));
        // 0x8000 sign-extended from byte 1 is negative.
        let extended = u(0x8000).sign_extend(u(1));
        assert!(extended.is_negative());
        assert_eq!(extended.byte_le(1), 0x80);
        assert_eq!(extended.byte_le(2), 0xff);
    }

    #[test]
    fn byte_indexing() {
        let v =
            U256::from_hex("0x0102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20")
                .unwrap();
        assert_eq!(v.byte_be(0), 0x01);
        assert_eq!(v.byte_be(31), 0x20);
        assert_eq!(v.byte_le(0), 0x20);
        assert_eq!(v.byte_le(31), 0x01);
        assert_eq!(v.byte_be(32), 0);
        assert_eq!(v.byte_le(32), 0);
    }

    #[test]
    fn bits_and_leading_zeros() {
        assert_eq!(U256::ZERO.bits(), 0);
        assert_eq!(U256::ONE.bits(), 1);
        assert_eq!(u(0xff).bits(), 8);
        assert_eq!(U256::MAX.bits(), 256);
        assert_eq!(U256::ZERO.leading_zeros(), 256);
        assert_eq!(U256::MAX.leading_zeros(), 0);
        assert_eq!(U256::SIGN_BIT.bits(), 256);
    }

    #[test]
    fn bit_accessor() {
        assert!(U256::ONE.bit(0));
        assert!(!U256::ONE.bit(1));
        assert!(U256::SIGN_BIT.bit(255));
        assert!(!U256::SIGN_BIT.bit(256));
        assert!(!U256::MAX.bit(1000));
    }

    #[test]
    fn be_bytes_round_trip() {
        let v = u(0x0123_4567_89ab_cdef_fedc_ba98_7654_3210);
        assert_eq!(U256::from_be_bytes(v.to_be_bytes()), v);
        let bytes = U256::ONE.to_be_bytes();
        assert_eq!(bytes[31], 1);
        assert!(bytes[..31].iter().all(|&b| b == 0));
    }

    #[test]
    fn le_bytes_match_be_reversed() {
        let v = u(0xdead_beef_cafe_babe);
        let mut le = v.to_le_bytes();
        le.reverse();
        assert_eq!(le, v.to_be_bytes());
    }

    #[test]
    fn from_be_slice_pads_left() {
        assert_eq!(U256::from_be_slice(&[0x12, 0x34]).unwrap(), u(0x1234));
        assert_eq!(U256::from_be_slice(&[]).unwrap(), U256::ZERO);
        assert!(U256::from_be_slice(&[0u8; 33]).is_err());
    }

    #[test]
    fn trimmed_bytes() {
        assert_eq!(u(0).to_be_bytes_trimmed(), Vec::<u8>::new());
        assert_eq!(u(1).to_be_bytes_trimmed(), vec![1]);
        assert_eq!(u(0x0100).to_be_bytes_trimmed(), vec![1, 0]);
    }

    #[test]
    fn hex_round_trip() {
        let v = U256::from_hex("0xdeadbeef").unwrap();
        assert_eq!(v, u(0xdeadbeef));
        assert_eq!(v.to_hex(), "0xdeadbeef");
        assert_eq!(U256::ZERO.to_hex(), "0x0");
        assert_eq!(U256::from_hex("0x0").unwrap(), U256::ZERO);
        assert_eq!(U256::from_hex("ff").unwrap(), u(255));
        assert!(U256::from_hex("").is_err());
        assert!(U256::from_hex("0xzz").is_err());
        assert!(U256::from_hex(&"f".repeat(65)).is_err());
    }

    #[test]
    fn dec_round_trip() {
        let v = U256::from_dec_str("123456789012345678901234567890").unwrap();
        assert_eq!(v.to_dec_string(), "123456789012345678901234567890");
        assert_eq!(U256::ZERO.to_dec_string(), "0");
        assert!(U256::from_dec_str("").is_err());
        assert!(U256::from_dec_str("12a").is_err());
        // 2^256 overflows.
        let too_big =
            "115792089237316195423570985008687907853269984665640564039457584007913129639936";
        assert!(U256::from_dec_str(too_big).is_err());
        // 2^256 - 1 is fine.
        let max = "115792089237316195423570985008687907853269984665640564039457584007913129639935";
        assert_eq!(U256::from_dec_str(max).unwrap(), U256::MAX);
        assert_eq!(U256::MAX.to_dec_string(), max);
    }

    #[test]
    fn ordering() {
        assert!(u(1) < u(2));
        assert!(
            U256::from_limbs([0, 0, 0, 1]) > U256::from_limbs([u64::MAX, u64::MAX, u64::MAX, 0])
        );
        assert_eq!(u(5).cmp(&u(5)), core::cmp::Ordering::Equal);
        assert!(U256::MAX > U256::SIGN_BIT);
    }

    #[test]
    fn bitwise_ops() {
        assert_eq!(u(0b1100) & u(0b1010), u(0b1000));
        assert_eq!(u(0b1100) | u(0b1010), u(0b1110));
        assert_eq!(u(0b1100) ^ u(0b1010), u(0b0110));
        assert_eq!(!U256::ZERO, U256::MAX);
        assert_eq!(!U256::MAX, U256::ZERO);
    }

    #[test]
    fn negation() {
        assert_eq!(U256::ZERO.wrapping_neg(), U256::ZERO);
        assert_eq!(U256::ONE.wrapping_neg(), U256::MAX);
        assert_eq!(u(5).wrapping_neg().wrapping_add(u(5)), U256::ZERO);
    }

    #[test]
    fn isqrt_values() {
        assert_eq!(U256::ZERO.isqrt(), U256::ZERO);
        assert_eq!(u(1).isqrt(), u(1));
        assert_eq!(u(15).isqrt(), u(3));
        assert_eq!(u(16).isqrt(), u(4));
        assert_eq!(u(17).isqrt(), u(4));
        let big = U256::ONE.shl(200);
        assert_eq!(big.isqrt(), U256::ONE.shl(100));
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(format!("{}", u(42)), "42");
        assert_eq!(format!("{:?}", u(255)), "U256(0xff)");
        assert_eq!(format!("{:x}", u(255)), "ff");
        assert_eq!(format!("{:X}", u(255)), "FF");
        assert_eq!(format!("{:b}", u(5)), "101");
        assert_eq!(format!("{:b}", U256::ZERO), "0");
    }

    #[test]
    fn conversions_from_primitives() {
        assert_eq!(U256::from(5u8), u(5));
        assert_eq!(U256::from(5u16), u(5));
        assert_eq!(U256::from(5u32), u(5));
        assert_eq!(U256::from(5u64), u(5));
        assert_eq!(U256::from(5u128), u(5));
        assert_eq!(U256::from(5usize), u(5));
        assert_eq!(U256::from(u128::MAX).low_u128(), u128::MAX);
    }

    #[test]
    fn to_u64_and_usize() {
        assert_eq!(u(42).to_u64(), Some(42));
        assert_eq!(U256::MAX.to_u64(), None);
        assert_eq!(u(42).to_usize(), Some(42));
        assert_eq!(U256::from_limbs([1, 1, 0, 0]).to_usize(), None);
    }

    // Despite its name this test never involved serde: it checks that the
    // hex-string form round-trips through `to_hex` and `from_hex`.
    #[test]
    fn serde_round_trip() {
        let v = u(0xdeadbeef);
        assert_eq!(U256::from_hex(&v.to_hex()).unwrap(), v);
    }
}
