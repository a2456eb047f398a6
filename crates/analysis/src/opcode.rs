//! The TinyEVM instruction set.
//!
//! TinyEVM executes standard Ethereum bytecode, so the opcode numbering is
//! the EVM's. What changes (paper, Table I) is *which* opcodes are available
//! during off-chain execution:
//!
//! * the six blockchain-information opcodes (`BLOCKHASH`, `COINBASE`,
//!   `TIMESTAMP`, `NUMBER`, `DIFFICULTY`, `GASLIMIT`) trap, because the
//!   device has no view of the chain while executing locally;
//! * the gas-introspection opcodes (`GAS`, `GASPRICE`) trap, because
//!   off-chain execution is not metered;
//! * the previously unused byte `0x0C` becomes the **IoT opcode**, which asks
//!   the host device to read a sensor or drive an actuator.
//!
//! Every opcode carries an [`OpcodeInfo`] record with its stack effect, its
//! [`OpcodeCategory`] (used to regenerate Table I), and a base cost in MCU
//! cycles used by the device timing model — the paper observes that a single
//! 256-bit opcode takes "in the order of hundreds of MCU cycles" on the
//! 32-bit Cortex-M3.

/// Functional category of an opcode, following the paper's Table I taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpcodeCategory {
    /// Arithmetic, comparison, bitwise and hashing computations.
    Operation,
    /// Smart-contract control flow, environment and call-related opcodes.
    SmartContract,
    /// Stack, memory and storage movement.
    Memory,
    /// Blockchain-information opcodes (removed in TinyEVM's off-chain mode).
    Blockchain,
    /// The TinyEVM IoT extension.
    Iot,
}

/// Static description of one opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpcodeInfo {
    /// Mnemonic, e.g. `"ADD"`.
    pub name: &'static str,
    /// Number of stack items consumed.
    pub inputs: usize,
    /// Number of stack items produced.
    pub outputs: usize,
    /// Functional category.
    pub category: OpcodeCategory,
    /// Base cost in MCU cycles on the modelled 32-bit Cortex-M3 (used by the
    /// device timing model; the interpreter itself does not consume it).
    pub mcu_cycles: u32,
    /// Gas cost in metered (on-chain) mode, a simplified Homestead-era
    /// schedule.
    pub gas: u64,
}

macro_rules! opcodes {
    ($( $name:ident = $byte:expr, $mnemonic:expr, $inputs:expr, $outputs:expr, $category:ident, $cycles:expr, $gas:expr; )*) => {
        /// One EVM / TinyEVM instruction.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[allow(missing_docs)]
        pub enum Opcode {
            $( $name, )*
        }

        impl Opcode {
            /// All defined opcodes.
            pub const ALL: &'static [Opcode] = &[ $( Opcode::$name, )* ];

            /// Decodes a byte into an opcode, if defined.
            pub fn from_byte(byte: u8) -> Option<Opcode> {
                match byte {
                    $( $byte => Some(Opcode::$name), )*
                    _ => None,
                }
            }

            /// The encoded byte value.
            pub fn to_byte(self) -> u8 {
                match self {
                    $( Opcode::$name => $byte, )*
                }
            }

            /// Static metadata for this opcode.
            pub fn info(self) -> OpcodeInfo {
                match self {
                    $( Opcode::$name => OpcodeInfo {
                        name: $mnemonic,
                        inputs: $inputs,
                        outputs: $outputs,
                        category: OpcodeCategory::$category,
                        mcu_cycles: $cycles,
                        gas: $gas,
                    }, )*
                }
            }

            /// Looks up an opcode by mnemonic (case-insensitive).
            pub fn from_mnemonic(mnemonic: &str) -> Option<Opcode> {
                let upper = mnemonic.to_ascii_uppercase();
                match upper.as_str() {
                    $( $mnemonic => Some(Opcode::$name), )*
                    _ => None,
                }
            }
        }
    };
}

opcodes! {
    // name        byte   mnemonic        in out category      cycles gas
    Stop         = 0x00, "STOP",          0, 0, SmartContract,   40,   0;
    Add          = 0x01, "ADD",           2, 1, Operation,      180,   3;
    Mul          = 0x02, "MUL",           2, 1, Operation,      420,   5;
    Sub          = 0x03, "SUB",           2, 1, Operation,      180,   3;
    Div          = 0x04, "DIV",           2, 1, Operation,      950,   5;
    SDiv         = 0x05, "SDIV",          2, 1, Operation,     1050,   5;
    Mod          = 0x06, "MOD",           2, 1, Operation,      950,   5;
    SMod         = 0x07, "SMOD",          2, 1, Operation,     1050,   5;
    AddMod       = 0x08, "ADDMOD",        3, 1, Operation,     1400,   8;
    MulMod       = 0x09, "MULMOD",        3, 1, Operation,     2600,   8;
    Exp          = 0x0a, "EXP",           2, 1, Operation,     5200,  10;
    SignExtend   = 0x0b, "SIGNEXTEND",    2, 1, Operation,      260,   5;
    Iot          = 0x0c, "IOT",           2, 1, Iot,           3200,   0;
    Lt           = 0x10, "LT",            2, 1, Operation,      140,   3;
    Gt           = 0x11, "GT",            2, 1, Operation,      140,   3;
    Slt          = 0x12, "SLT",           2, 1, Operation,      160,   3;
    Sgt          = 0x13, "SGT",           2, 1, Operation,      160,   3;
    Eq           = 0x14, "EQ",            2, 1, Operation,      130,   3;
    IsZero       = 0x15, "ISZERO",        1, 1, Operation,       90,   3;
    And          = 0x16, "AND",           2, 1, Operation,      110,   3;
    Or           = 0x17, "OR",            2, 1, Operation,      110,   3;
    Xor          = 0x18, "XOR",           2, 1, Operation,      110,   3;
    Not          = 0x19, "NOT",           1, 1, Operation,       90,   3;
    Byte         = 0x1a, "BYTE",          2, 1, Operation,      120,   3;
    Shl          = 0x1b, "SHL",           2, 1, Operation,      210,   3;
    Shr          = 0x1c, "SHR",           2, 1, Operation,      210,   3;
    Sar          = 0x1d, "SAR",           2, 1, Operation,      240,   3;
    Sha3         = 0x20, "SHA3",          2, 1, Operation,    38000,  30;
    Address      = 0x30, "ADDRESS",       0, 1, SmartContract,  100,   2;
    Balance      = 0x31, "BALANCE",       1, 1, SmartContract,  300,  20;
    Origin       = 0x32, "ORIGIN",        0, 1, SmartContract,  100,   2;
    Caller       = 0x33, "CALLER",        0, 1, SmartContract,  100,   2;
    CallValue    = 0x34, "CALLVALUE",     0, 1, SmartContract,  100,   2;
    CallDataLoad = 0x35, "CALLDATALOAD",  1, 1, Memory,         220,   3;
    CallDataSize = 0x36, "CALLDATASIZE",  0, 1, Memory,          80,   2;
    CallDataCopy = 0x37, "CALLDATACOPY",  3, 0, Memory,         400,   3;
    CodeSize     = 0x38, "CODESIZE",      0, 1, Memory,          80,   2;
    CodeCopy     = 0x39, "CODECOPY",      3, 0, Memory,         400,   3;
    GasPrice     = 0x3a, "GASPRICE",      0, 1, SmartContract,  100,   2;
    ExtCodeSize  = 0x3b, "EXTCODESIZE",   1, 1, SmartContract,  300,  20;
    ExtCodeCopy  = 0x3c, "EXTCODECOPY",   4, 0, SmartContract,  500,  20;
    ReturnDataSize = 0x3d, "RETURNDATASIZE", 0, 1, Memory,       80,   2;
    ReturnDataCopy = 0x3e, "RETURNDATACOPY", 3, 0, Memory,      400,   3;
    ExtCodeHash  = 0x3f, "EXTCODEHASH",   1, 1, SmartContract, 38000, 400;
    BlockHash    = 0x40, "BLOCKHASH",     1, 1, Blockchain,     300,  20;
    Coinbase     = 0x41, "COINBASE",      0, 1, Blockchain,     100,   2;
    Timestamp    = 0x42, "TIMESTAMP",     0, 1, Blockchain,     100,   2;
    Number       = 0x43, "NUMBER",        0, 1, Blockchain,     100,   2;
    Difficulty   = 0x44, "DIFFICULTY",    0, 1, Blockchain,     100,   2;
    GasLimit     = 0x45, "GASLIMIT",      0, 1, Blockchain,     100,   2;
    Pop          = 0x50, "POP",           1, 0, Memory,          60,   2;
    MLoad        = 0x51, "MLOAD",         1, 1, Memory,         260,   3;
    MStore       = 0x52, "MSTORE",        2, 0, Memory,         260,   3;
    MStore8      = 0x53, "MSTORE8",       2, 0, Memory,         140,   3;
    SLoad        = 0x54, "SLOAD",         1, 1, Memory,         700,  50;
    SStore       = 0x55, "SSTORE",        2, 0, Memory,         900, 5000;
    Jump         = 0x56, "JUMP",          1, 0, SmartContract,  120,   8;
    JumpI        = 0x57, "JUMPI",         2, 0, SmartContract,  140,  10;
    Pc           = 0x58, "PC",            0, 1, Operation,       70,   2;
    MSize        = 0x59, "MSIZE",         0, 1, Memory,          70,   2;
    Gas          = 0x5a, "GAS",           0, 1, SmartContract,   70,   2;
    JumpDest     = 0x5b, "JUMPDEST",      0, 0, SmartContract,   30,   1;
    Push1        = 0x60, "PUSH1",         0, 1, Memory,          90,   3;
    Push2        = 0x61, "PUSH2",         0, 1, Memory,          95,   3;
    Push3        = 0x62, "PUSH3",         0, 1, Memory,         100,   3;
    Push4        = 0x63, "PUSH4",         0, 1, Memory,         105,   3;
    Push5        = 0x64, "PUSH5",         0, 1, Memory,         110,   3;
    Push6        = 0x65, "PUSH6",         0, 1, Memory,         115,   3;
    Push7        = 0x66, "PUSH7",         0, 1, Memory,         120,   3;
    Push8        = 0x67, "PUSH8",         0, 1, Memory,         125,   3;
    Push9        = 0x68, "PUSH9",         0, 1, Memory,         130,   3;
    Push10       = 0x69, "PUSH10",        0, 1, Memory,         135,   3;
    Push11       = 0x6a, "PUSH11",        0, 1, Memory,         140,   3;
    Push12       = 0x6b, "PUSH12",        0, 1, Memory,         145,   3;
    Push13       = 0x6c, "PUSH13",        0, 1, Memory,         150,   3;
    Push14       = 0x6d, "PUSH14",        0, 1, Memory,         155,   3;
    Push15       = 0x6e, "PUSH15",        0, 1, Memory,         160,   3;
    Push16       = 0x6f, "PUSH16",        0, 1, Memory,         165,   3;
    Push17       = 0x70, "PUSH17",        0, 1, Memory,         170,   3;
    Push18       = 0x71, "PUSH18",        0, 1, Memory,         175,   3;
    Push19       = 0x72, "PUSH19",        0, 1, Memory,         180,   3;
    Push20       = 0x73, "PUSH20",        0, 1, Memory,         185,   3;
    Push21       = 0x74, "PUSH21",        0, 1, Memory,         190,   3;
    Push22       = 0x75, "PUSH22",        0, 1, Memory,         195,   3;
    Push23       = 0x76, "PUSH23",        0, 1, Memory,         200,   3;
    Push24       = 0x77, "PUSH24",        0, 1, Memory,         205,   3;
    Push25       = 0x78, "PUSH25",        0, 1, Memory,         210,   3;
    Push26       = 0x79, "PUSH26",        0, 1, Memory,         215,   3;
    Push27       = 0x7a, "PUSH27",        0, 1, Memory,         220,   3;
    Push28       = 0x7b, "PUSH28",        0, 1, Memory,         225,   3;
    Push29       = 0x7c, "PUSH29",        0, 1, Memory,         230,   3;
    Push30       = 0x7d, "PUSH30",        0, 1, Memory,         235,   3;
    Push31       = 0x7e, "PUSH31",        0, 1, Memory,         240,   3;
    Push32       = 0x7f, "PUSH32",        0, 1, Memory,         245,   3;
    Dup1         = 0x80, "DUP1",          1, 2, Memory,          80,   3;
    Dup2         = 0x81, "DUP2",          2, 3, Memory,          80,   3;
    Dup3         = 0x82, "DUP3",          3, 4, Memory,          80,   3;
    Dup4         = 0x83, "DUP4",          4, 5, Memory,          80,   3;
    Dup5         = 0x84, "DUP5",          5, 6, Memory,          80,   3;
    Dup6         = 0x85, "DUP6",          6, 7, Memory,          80,   3;
    Dup7         = 0x86, "DUP7",          7, 8, Memory,          80,   3;
    Dup8         = 0x87, "DUP8",          8, 9, Memory,          80,   3;
    Dup9         = 0x88, "DUP9",          9, 10, Memory,         80,   3;
    Dup10        = 0x89, "DUP10",         10, 11, Memory,        80,   3;
    Dup11        = 0x8a, "DUP11",         11, 12, Memory,        80,   3;
    Dup12        = 0x8b, "DUP12",         12, 13, Memory,        80,   3;
    Dup13        = 0x8c, "DUP13",         13, 14, Memory,        80,   3;
    Dup14        = 0x8d, "DUP14",         14, 15, Memory,        80,   3;
    Dup15        = 0x8e, "DUP15",         15, 16, Memory,        80,   3;
    Dup16        = 0x8f, "DUP16",         16, 17, Memory,        80,   3;
    Swap1        = 0x90, "SWAP1",         2, 2, Memory,          80,   3;
    Swap2        = 0x91, "SWAP2",         3, 3, Memory,          80,   3;
    Swap3        = 0x92, "SWAP3",         4, 4, Memory,          80,   3;
    Swap4        = 0x93, "SWAP4",         5, 5, Memory,          80,   3;
    Swap5        = 0x94, "SWAP5",         6, 6, Memory,          80,   3;
    Swap6        = 0x95, "SWAP6",         7, 7, Memory,          80,   3;
    Swap7        = 0x96, "SWAP7",         8, 8, Memory,          80,   3;
    Swap8        = 0x97, "SWAP8",         9, 9, Memory,          80,   3;
    Swap9        = 0x98, "SWAP9",         10, 10, Memory,        80,   3;
    Swap10       = 0x99, "SWAP10",        11, 11, Memory,        80,   3;
    Swap11       = 0x9a, "SWAP11",        12, 12, Memory,        80,   3;
    Swap12       = 0x9b, "SWAP12",        13, 13, Memory,        80,   3;
    Swap13       = 0x9c, "SWAP13",        14, 14, Memory,        80,   3;
    Swap14       = 0x9d, "SWAP14",        15, 15, Memory,        80,   3;
    Swap15       = 0x9e, "SWAP15",        16, 16, Memory,        80,   3;
    Swap16       = 0x9f, "SWAP16",        17, 17, Memory,        80,   3;
    Log0         = 0xa0, "LOG0",          2, 0, SmartContract,  600, 375;
    Log1         = 0xa1, "LOG1",          3, 0, SmartContract,  700, 750;
    Log2         = 0xa2, "LOG2",          4, 0, SmartContract,  800, 1125;
    Log3         = 0xa3, "LOG3",          5, 0, SmartContract,  900, 1500;
    Log4         = 0xa4, "LOG4",          6, 0, SmartContract, 1000, 1875;
    Create       = 0xf0, "CREATE",        3, 1, SmartContract, 9000, 32000;
    Call         = 0xf1, "CALL",          7, 1, SmartContract, 4000, 700;
    CallCode     = 0xf2, "CALLCODE",      7, 1, SmartContract, 4000, 700;
    Return       = 0xf3, "RETURN",        2, 0, SmartContract,  200,   0;
    DelegateCall = 0xf4, "DELEGATECALL",  6, 1, SmartContract, 4000, 700;
    StaticCall   = 0xfa, "STATICCALL",    6, 1, SmartContract, 4000, 700;
    Revert       = 0xfd, "REVERT",        2, 0, SmartContract,  200,   0;
    Invalid      = 0xfe, "INVALID",       0, 0, SmartContract,   30,   0;
    SelfDestruct = 0xff, "SELFDESTRUCT",  1, 0, SmartContract,  600, 5000;
}

impl Opcode {
    /// For `PUSH1`..`PUSH32`, the number of immediate bytes; zero otherwise.
    pub fn push_bytes(self) -> usize {
        let byte = self.to_byte();
        if (0x60..=0x7f).contains(&byte) {
            (byte - 0x5f) as usize
        } else {
            0
        }
    }

    /// For `DUP1`..`DUP16`, the depth duplicated (1-based); zero otherwise.
    pub fn dup_depth(self) -> usize {
        let byte = self.to_byte();
        if (0x80..=0x8f).contains(&byte) {
            (byte - 0x7f) as usize
        } else {
            0
        }
    }

    /// For `SWAP1`..`SWAP16`, the depth swapped with (1-based); zero
    /// otherwise.
    pub fn swap_depth(self) -> usize {
        let byte = self.to_byte();
        if (0x90..=0x9f).contains(&byte) {
            (byte - 0x8f) as usize
        } else {
            0
        }
    }

    /// For `LOG0`..`LOG4`, the number of topics; zero otherwise.
    pub fn log_topics(self) -> usize {
        let byte = self.to_byte();
        if (0xa0..=0xa4).contains(&byte) {
            (byte - 0xa0) as usize
        } else {
            0
        }
    }

    /// True if this opcode is removed from TinyEVM's off-chain mode:
    /// blockchain-information opcodes and gas introspection.
    pub fn removed_off_chain(self) -> bool {
        matches!(
            self,
            Opcode::BlockHash
                | Opcode::Coinbase
                | Opcode::Timestamp
                | Opcode::Number
                | Opcode::Difficulty
                | Opcode::GasLimit
                | Opcode::Gas
                | Opcode::GasPrice
        )
    }

    /// True if this opcode terminates the current frame.
    pub fn is_terminator(self) -> bool {
        matches!(
            self,
            Opcode::Stop | Opcode::Return | Opcode::Revert | Opcode::Invalid | Opcode::SelfDestruct
        )
    }
}

/// Census of opcode categories, used to regenerate the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CategoryCensus {
    /// Count of [`OpcodeCategory::Operation`] opcodes.
    pub operation: usize,
    /// Count of [`OpcodeCategory::SmartContract`] opcodes.
    pub smart_contract: usize,
    /// Count of [`OpcodeCategory::Memory`] opcodes (PUSH/DUP/SWAP families
    /// counted as one entry each, as the paper does).
    pub memory: usize,
    /// Count of [`OpcodeCategory::Blockchain`] opcodes.
    pub blockchain: usize,
    /// Count of [`OpcodeCategory::Iot`] opcodes.
    pub iot: usize,
}

impl CategoryCensus {
    /// Total number of (grouped) opcodes.
    pub fn total(&self) -> usize {
        self.operation + self.smart_contract + self.memory + self.blockchain + self.iot
    }
}

/// Counts opcode categories for the original EVM (IoT opcode excluded,
/// blockchain and gas opcodes included). PUSH/DUP/SWAP/LOG families collapse
/// to a single entry each, matching how the paper's Table I arrives at 71
/// discrete opcodes.
pub fn evm_census() -> CategoryCensus {
    census(|op| *op != Opcode::Iot)
}

/// Counts opcode categories for TinyEVM's off-chain mode (IoT opcode
/// included, blockchain and gas opcodes removed).
pub fn tinyevm_census() -> CategoryCensus {
    census(|op| !op.removed_off_chain())
}

fn census<F: Fn(&Opcode) -> bool>(include: F) -> CategoryCensus {
    let mut result = CategoryCensus {
        operation: 0,
        smart_contract: 0,
        memory: 0,
        blockchain: 0,
        iot: 0,
    };
    for op in Opcode::ALL {
        if !include(op) {
            continue;
        }
        // Collapse the wide families to one representative.
        let byte = op.to_byte();
        let is_family_follower =
            matches!(byte, 0x61..=0x7f | 0x81..=0x8f | 0x91..=0x9f | 0xa1..=0xa4);
        if is_family_follower {
            continue;
        }
        match op.info().category {
            OpcodeCategory::Operation => result.operation += 1,
            OpcodeCategory::SmartContract => result.smart_contract += 1,
            OpcodeCategory::Memory => result.memory += 1,
            OpcodeCategory::Blockchain => result.blockchain += 1,
            OpcodeCategory::Iot => result.iot += 1,
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_round_trip_for_all_opcodes() {
        for &op in Opcode::ALL {
            assert_eq!(Opcode::from_byte(op.to_byte()), Some(op));
        }
    }

    #[test]
    fn undefined_bytes_decode_to_none() {
        assert_eq!(Opcode::from_byte(0x0d), None);
        assert_eq!(Opcode::from_byte(0x0e), None);
        assert_eq!(Opcode::from_byte(0x21), None);
        assert_eq!(Opcode::from_byte(0x46), None);
        assert_eq!(Opcode::from_byte(0xf5), None); // CREATE2 (post-paper) is undefined here.
        assert_eq!(Opcode::from_byte(0xfb), None);
    }

    #[test]
    fn iot_opcode_occupies_0x0c() {
        assert_eq!(Opcode::from_byte(0x0c), Some(Opcode::Iot));
        assert_eq!(Opcode::Iot.info().category, OpcodeCategory::Iot);
        assert_eq!(Opcode::Iot.info().inputs, 2);
        assert_eq!(Opcode::Iot.info().outputs, 1);
    }

    #[test]
    fn mnemonic_round_trip() {
        for &op in Opcode::ALL {
            assert_eq!(Opcode::from_mnemonic(op.info().name), Some(op));
        }
        assert_eq!(Opcode::from_mnemonic("add"), Some(Opcode::Add));
        assert_eq!(Opcode::from_mnemonic("nonsense"), None);
    }

    #[test]
    fn push_dup_swap_log_helpers() {
        assert_eq!(Opcode::Push1.push_bytes(), 1);
        assert_eq!(Opcode::Push32.push_bytes(), 32);
        assert_eq!(Opcode::Add.push_bytes(), 0);
        assert_eq!(Opcode::Dup1.dup_depth(), 1);
        assert_eq!(Opcode::Dup16.dup_depth(), 16);
        assert_eq!(Opcode::Swap1.swap_depth(), 1);
        assert_eq!(Opcode::Swap16.swap_depth(), 16);
        assert_eq!(Opcode::Log0.log_topics(), 0);
        assert_eq!(Opcode::Log4.log_topics(), 4);
        assert_eq!(Opcode::Add.dup_depth(), 0);
        assert_eq!(Opcode::Add.swap_depth(), 0);
        assert_eq!(Opcode::Add.log_topics(), 0);
    }

    #[test]
    fn removed_off_chain_set_matches_paper() {
        let removed: Vec<Opcode> = Opcode::ALL
            .iter()
            .copied()
            .filter(|op| op.removed_off_chain())
            .collect();
        // Six blockchain opcodes plus the two gas introspection opcodes.
        assert_eq!(removed.len(), 8);
        assert!(removed.contains(&Opcode::BlockHash));
        assert!(removed.contains(&Opcode::Timestamp));
        assert!(removed.contains(&Opcode::Gas));
        assert!(removed.contains(&Opcode::GasPrice));
        assert!(!removed.contains(&Opcode::Sha3));
        assert!(!removed.contains(&Opcode::Iot));
    }

    #[test]
    fn terminators() {
        assert!(Opcode::Stop.is_terminator());
        assert!(Opcode::Return.is_terminator());
        assert!(Opcode::Revert.is_terminator());
        assert!(Opcode::SelfDestruct.is_terminator());
        assert!(!Opcode::Jump.is_terminator());
    }

    #[test]
    fn census_matches_table_one_structure() {
        let evm = evm_census();
        let tiny = tinyevm_census();

        // Structural properties the paper's Table I reports:
        // identical operation and memory counts, blockchain opcodes removed,
        // exactly one IoT opcode added, and fewer smart-contract opcodes
        // (the gas group) off-chain.
        assert_eq!(evm.operation, tiny.operation);
        assert_eq!(evm.memory, tiny.memory);
        assert_eq!(evm.blockchain, 6);
        assert_eq!(tiny.blockchain, 0);
        assert_eq!(evm.iot, 0);
        assert_eq!(tiny.iot, 1);
        assert!(tiny.smart_contract < evm.smart_contract);
        // The paper reports 27 operation opcodes; our table reproduces that.
        assert_eq!(evm.operation, 27);
        // 14 data-movement opcodes plus the PUSH / DUP / SWAP families
        // counted once each.
        assert_eq!(evm.memory, 17);
    }

    #[test]
    fn info_is_consistent_for_spot_checks() {
        assert_eq!(Opcode::Add.info().inputs, 2);
        assert_eq!(Opcode::Add.info().outputs, 1);
        assert_eq!(Opcode::Call.info().inputs, 7);
        assert_eq!(Opcode::MStore.info().inputs, 2);
        assert_eq!(Opcode::JumpDest.info().inputs, 0);
        assert!(Opcode::Sha3.info().mcu_cycles > Opcode::Add.info().mcu_cycles);
        assert_eq!(Opcode::SStore.info().gas, 5000);
    }
}
