//! Exact host-side counts of the expensive secp256k1 operations.
//!
//! Every call to
//! [`PrivateKey::sign_prehashed`](crate::secp256k1::PrivateKey::sign_prehashed),
//! [`Signature::recover`](crate::secp256k1::Signature::recover) (and so
//! `recover_address`),
//! [`PublicKey::verify_prehashed`](crate::secp256k1::PublicKey::verify_prehashed)
//! and [`PrivateKey::public_key`](crate::secp256k1::PrivateKey::public_key)
//! (and so `eth_address`) bumps a per-thread counter. Tests read the
//! counters with [`snapshot`] to pin how many ECDSA operations a protocol
//! step costs on the host — an exact count, unlike a wall-clock lane, does
//! not move with machine load. A bump is one thread-local `Cell` read and
//! write, nanoseconds against the hundreds of microseconds of the
//! operation it counts.

use std::cell::Cell;

thread_local! {
    static COUNTS: Cell<OpCounts> = const { Cell::new(OpCounts::ZERO) };
}

/// The counted operations.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    Sign,
    Recover,
    Verify,
    PublicKey,
}

/// Counts one `op` on the calling thread.
#[inline]
pub(crate) fn record(op: Op) {
    COUNTS.with(|counts| {
        let mut next = counts.get();
        match op {
            Op::Sign => next.sign += 1,
            Op::Recover => next.recover += 1,
            Op::Verify => next.verify += 1,
            Op::PublicKey => next.public_key += 1,
        }
        counts.set(next);
    });
}

/// Running totals of the counted operations on one thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// ECDSA signatures produced.
    pub sign: u64,
    /// Public keys recovered from signatures.
    pub recover: u64,
    /// Signatures verified against a known public key.
    pub verify: u64,
    /// Public keys derived from private keys (`d·G`).
    pub public_key: u64,
}

impl OpCounts {
    /// All counters at zero.
    pub const ZERO: OpCounts = OpCounts {
        sign: 0,
        recover: 0,
        verify: 0,
        public_key: 0,
    };

    /// The operations counted after `earlier` was taken.
    pub fn since(self, earlier: OpCounts) -> OpCounts {
        OpCounts {
            sign: self.sign - earlier.sign,
            recover: self.recover - earlier.recover,
            verify: self.verify - earlier.verify,
            public_key: self.public_key - earlier.public_key,
        }
    }
}

/// The calling thread's totals so far.
pub fn snapshot() -> OpCounts {
    COUNTS.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::secp256k1::PrivateKey;

    #[test]
    fn each_operation_bumps_exactly_its_counter() {
        let key = PrivateKey::from_seed(b"opcount");
        let digest = [7u8; 32];
        let before = snapshot();
        let signature = key.sign_prehashed(&digest);
        assert_eq!(
            snapshot().since(before),
            OpCounts {
                sign: 1,
                ..OpCounts::ZERO
            }
        );
        let public_key = key.public_key();
        assert!(public_key.verify_prehashed(&digest, &signature));
        assert_eq!(signature.recover_address(&digest), Ok(key.eth_address()));
        assert_eq!(
            snapshot().since(before),
            OpCounts {
                sign: 1,
                recover: 1,
                verify: 1,
                public_key: 2,
            }
        );
    }
}
